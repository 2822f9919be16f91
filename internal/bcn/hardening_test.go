package bcn

import (
	"errors"
	"math"
	"testing"
)

func TestMessageValidate(t *testing.T) {
	ok := Message{CPID: 1, Sigma: -1e5, Flags: FlagSevere}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid message rejected: %v", err)
	}
	bad := []Message{
		{CPID: 0, Sigma: 1},                // zero CPID
		{CPID: 1, Sigma: math.NaN()},       // NaN feedback
		{CPID: 1, Sigma: math.Inf(1)},      // infinite feedback
		{CPID: 1, Sigma: 1, Flags: 1 << 3}, // reserved flag bit
		{CPID: 1, Sigma: 1, Flags: 0xFFFE}, // many reserved bits
	}
	for i, m := range bad {
		err := m.Validate()
		if err == nil {
			t.Errorf("message %d accepted: %+v", i, m)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("message %d error %v not ErrMalformed", i, err)
		}
	}
}

func TestReactionPointRejectsMalformed(t *testing.T) {
	cfg := RPConfig{Ru: 8e6, Gi: 4, Gd: 1.0 / 128, MinRate: 1e6, MaxRate: 1e9, Mode: ModeFluid}
	rp, err := NewReactionPoint(cfg, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(nil, 0.1)
	rp.OnMessage(&Message{CPID: 1, Sigma: math.NaN()}, 0.2)
	rp.OnMessage(&Message{CPID: 1, Sigma: math.Inf(-1)}, 0.3)
	rp.OnMessage(&Message{CPID: 1, Sigma: -1e5}, math.NaN())
	rp.OnMessage(&Message{CPID: 1, Sigma: -1e5}, math.Inf(1))
	if r := rp.Rate(1); r != 5e8 || rp.Associated() != 0 {
		t.Errorf("malformed input was applied: rate %v, associated with %v", r, rp.Associated())
	}
	// A well-formed message still works afterwards.
	rp.OnMessage(&Message{CPID: 1, Sigma: -1e5}, 1)
	if r := rp.Rate(1.001); r >= 5e8 || rp.Associated() != 1 {
		t.Errorf("well-formed message not applied after rejections: rate %v, associated with %v", r, rp.Associated())
	}
}

func TestCongestionPointRejectsBadSizes(t *testing.T) {
	cp, err := NewCongestionPoint(CPConfig{CPID: 1, Q0: 1e5, W: 2, Pm: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := MAC{0x02, 0, 0, 0, 0, 1}
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -12000} {
		if m := cp.OnArrival(Arrival{SizeBits: size, Src: src}); m != nil {
			t.Errorf("size %v produced a message", size)
		}
		cp.OnDeparture(size)
	}
	if q := cp.QueueBits(); q != 0 {
		t.Errorf("queue accounting poisoned: %v", q)
	}
	// Sane traffic still flows.
	if m := cp.OnArrival(Arrival{SizeBits: 2e5, Src: src}); m == nil || m.Sigma >= 0 {
		t.Error("well-formed arrival after rejections produced no negative message")
	}
}
