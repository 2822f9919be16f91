package bcn

import (
	"math"
	"testing"
)

// FuzzUnmarshalBinary ensures arbitrary wire bytes never panic the
// decoder and that accepted messages re-encode to an equivalent frame.
func FuzzUnmarshalBinary(f *testing.F) {
	valid, _ := (&Message{
		DA: MAC{1, 2, 3, 4, 5, 6}, SA: MAC{6, 5, 4, 3, 2, 1},
		CPID: 42, Sigma: -12800,
	}).MarshalBinary()
	f.Add(valid)
	f.Add(make([]byte, MessageLen))
	f.Add([]byte{})
	f.Add(make([]byte, MessageLen-1))
	f.Add(make([]byte, MessageLen+7))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.UnmarshalBinary(data); err != nil {
			return // rejected input: fine
		}
		// Accepted messages must round-trip losslessly (σ is already
		// quantized on the wire, so re-encoding is exact).
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var m2 Message
		if err := m2.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.DA != m.DA || m2.SA != m.SA || m2.CPID != m.CPID || m2.Flags != m.Flags {
			t.Fatalf("fields drifted: %+v vs %+v", m2, m)
		}
		if math.Abs(m2.Sigma-m.Sigma) > 1e-9 {
			t.Fatalf("sigma drifted: %v vs %v", m2.Sigma, m.Sigma)
		}
	})
}

// FuzzCorruptedWire models a bit-corrupting feedback channel: a valid
// message is marshaled, mutated (bit flips, truncation, extension), and
// decoded. Decode must either return an error or yield a message the
// CP/RP can safely consume — Validate-accepted survivors fed to a
// reaction point must never panic or push the rate out of bounds.
func FuzzCorruptedWire(f *testing.F) {
	f.Add(uint16(25), byte(0x01), int64(-100), false)
	f.Add(uint16(13), byte(0x80), int64(40), true)
	f.Add(uint16(0), byte(0xFF), int64(0), false)
	f.Add(uint16(MessageLen), byte(0x55), int64(1<<30), true)

	f.Fuzz(func(t *testing.T, pos uint16, mask byte, sigmaQ int64, chop bool) {
		msg := &Message{
			DA: MAC{0x02, 0, 0, 0, 0, 9}, SA: MAC{0x02, 0xC0, 0, 0, 0, 1},
			CPID: 1, Sigma: float64(sigmaQ%(1<<31)) * FBUnit,
		}
		if msg.Sigma < 0 {
			msg.Flags = FlagSevere
		}
		data, err := msg.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if int(pos) < len(data) {
			data[pos] ^= mask
		}
		if chop && len(data) > 0 {
			data = data[:int(pos)%len(data)]
		}

		var rx Message
		if err := rx.UnmarshalBinary(data); err != nil {
			return // rejected at decode: fine
		}
		if err := rx.Validate(); err != nil {
			return // rejected at validation: fine
		}
		// A survivor carries plausible (possibly perturbed) feedback; it
		// must still be safe to act on.
		cfg := RPConfig{Ru: 8e6, Gi: 4, Gd: 1.0 / 128, MinRate: 1e6, MaxRate: 1e9, Mode: ModeFluid}
		rp, err := NewReactionPoint(cfg, 5e8)
		if err != nil {
			t.Fatal(err)
		}
		rp.OnMessage(&rx, 0.001)
		r := rp.Rate(0.002)
		if math.IsNaN(r) || r < cfg.MinRate || r > cfg.MaxRate {
			t.Fatalf("rate out of bounds after corrupted message: %v", r)
		}
	})
}

// FuzzReactionPoint drives the regulator with arbitrary message bytes and
// times; the rate must stay within bounds and never become NaN.
func FuzzReactionPoint(f *testing.F) {
	valid, _ := (&Message{CPID: 1, Sigma: -1e5}).MarshalBinary()
	f.Add(valid, 0.5, true)
	f.Add(make([]byte, MessageLen), 1.0, false)

	f.Fuzz(func(t *testing.T, data []byte, now float64, draft bool) {
		cfg := RPConfig{Ru: 8e6, Gi: 4, Gd: 1.0 / 128, MinRate: 1e6, MaxRate: 1e9, Mode: ModeFluid}
		if draft {
			cfg.Mode = ModeDraft
		}
		rp, err := NewReactionPoint(cfg, 5e8)
		if err != nil {
			t.Fatal(err)
		}
		var m Message
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		if math.IsNaN(now) || math.IsInf(now, 0) {
			return
		}
		rp.OnMessage(&m, now)
		r := rp.Rate(now + 1)
		if math.IsNaN(r) || r < cfg.MinRate || r > cfg.MaxRate {
			t.Fatalf("rate out of bounds: %v", r)
		}
	})
}
