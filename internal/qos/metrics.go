package qos

import (
	"bcnphase/internal/telemetry"
	"time"
)

// Metrics bundles the qos_* instruments. All fields are nil-safe per
// the telemetry contract, so a nil registry costs one pointer check per
// event.
type Metrics struct {
	Admitted     *telemetry.Counter
	Shed         *telemetry.CounterVec // reason: rate|tenant|brownout|deadline|queue
	TenantAdmit  *telemetry.CounterVec // tenant
	DeadlineDoom *telemetry.Counter
	StorageDegr  *telemetry.Counter
	VolatileRecs *telemetry.Counter
	FairWait     *telemetry.Histogram
	Ticks        *telemetry.Counter
}

// NewMetrics registers the qos_* families on reg (nil-safe) and wires
// the live gauges: advertised rate, capacity estimate, brownout level
// and tracked tenants.
func NewMetrics(reg *telemetry.Registry, ctl *Controller, wd *Watchdog, tl *TenantLimiter) *Metrics {
	m := &Metrics{
		Admitted:     reg.Counter("qos_admitted_total", "Requests admitted past the QoS gates."),
		Shed:         reg.CounterVec("qos_shed_total", "Requests shed by the QoS layer, by reason.", "reason"),
		TenantAdmit:  reg.CounterVec("qos_tenant_admitted_total", "Requests admitted, by tenant.", "tenant"),
		DeadlineDoom: reg.Counter("qos_deadline_doomed_total", "Requests rejected because their deadline budget could not cover the work."),
		StorageDegr:  reg.Counter("qos_storage_degraded_total", "Journal write failures that pinned the cached-only brownout."),
		VolatileRecs: reg.Counter("qos_volatile_records_total", "Artifacts kept in memory only because the journal is degraded."),
		FairWait:     reg.Histogram("qos_fair_wait_seconds", "Time spent waiting for a worker slot in the fair queue.", telemetry.DefBuckets),
		Ticks:        reg.Counter("qos_ticks_total", "Control-loop ticks applied."),
	}
	if ctl != nil {
		reg.GaugeFunc("qos_advertised_rate", "Advertised admission rate, jobs/second.", ctl.AdvertisedRate)
		reg.GaugeFunc("qos_capacity_estimate", "Measured service capacity estimate, jobs/second.", ctl.Capacity)
		reg.GaugeFunc("qos_service_time_seconds", "Mean observed service time estimate.", func() float64 {
			return ctl.ServiceTime().Seconds()
		})
	}
	if wd != nil {
		reg.GaugeFunc("qos_brownout_level", "Brownout rung in force (0=full 1=no-new-sweeps 2=cached-only 3=drain).", func() float64 {
			return float64(wd.Level())
		})
	}
	if tl != nil {
		reg.GaugeFunc("qos_tenants", "Tenants currently tracked by the limiter.", func() float64 {
			return float64(tl.Tenants())
		})
	}
	return m
}

// ObserveWait records a fair-queue wait.
func (m *Metrics) ObserveWait(d time.Duration) {
	if m == nil {
		return
	}
	m.FairWait.Observe(d.Seconds())
}
