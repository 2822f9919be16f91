// Package bcn implements the Backward Congestion Notification mechanism of
// the IEEE 802.1Qau ECM proposal (Bergamasco) analyzed by the paper: the
// BCN message wire format (paper Fig. 2), the congestion-point sampling
// and feedback computation (eq. 1), and the reaction-point AIMD rate
// regulator (eq. 2).
//
// The package is the mechanism layer the fluid model in internal/core
// abstracts; internal/netsim composes it into a packet-level simulator
// used to validate the model.
package bcn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// EtherTypeBCN is the EtherType identifying BCN messages. The draft used
// 802.1Q-tagged frames; the exact value was never standardized, so we use
// a value from the experimental range.
const EtherTypeBCN = 0x88FF

// MessageLen is the encoded size of a Message in bytes: DA(6) + SA(6) +
// EtherType(2) + Flags(2) + CPID(8) + FB(4) = 28 bytes, following the bit
// offsets of paper Fig. 2 (with the CPID widened to 64 bits so it can hold
// a switch MAC plus port, as the draft requires).
const MessageLen = 28

// FBUnit is the feedback quantization step in bits: the signed 32-bit FB
// field carries round(σ/FBUnit). 512 bits (64 bytes) per count covers
// ±137 Gbit of queue offset, far beyond any physical buffer.
const FBUnit = 512.0

// MAC is a 48-bit address.
type MAC [6]byte

// String formats the address in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// CPID identifies a congestion point (switch interface). Zero means "no
// congestion point".
type CPID uint64

// Errors returned by message decoding and validation.
var (
	// ErrShortMessage is returned when decoding fewer than MessageLen
	// bytes.
	ErrShortMessage = errors.New("bcn: short message")
	// ErrBadEtherType is returned when the EtherType field does not
	// identify a BCN message.
	ErrBadEtherType = errors.New("bcn: not a BCN message")
	// ErrMalformed is returned by Validate for messages that decode but
	// violate semantic invariants (reserved flag bits, zero CPID,
	// non-finite feedback) and must not reach a rate regulator.
	ErrMalformed = errors.New("bcn: malformed message")
)

// Message is a BCN control frame sent from a congestion point back to the
// source of a sampled frame.
type Message struct {
	// DA is the destination address: the source of the sampled frame.
	DA MAC
	// SA is the address of the reporting switch interface.
	SA MAC
	// Flags carries the severe-congestion indication in bit 0 (set when
	// the queue exceeded the severe threshold q_sc at sampling time).
	Flags uint16
	// CPID identifies the congestion entity.
	CPID CPID
	// Sigma is the feedback measure σ = (q0 − q) − w·Δq in bits.
	// Positive σ is a "positive BCN" (rate increase permitted);
	// negative σ demands a rate decrease. The wire encoding quantizes
	// to FBUnit.
	Sigma float64
}

// FlagSevere marks severe congestion (queue above q_sc).
const FlagSevere uint16 = 1 << 0

// Positive reports whether this is a positive BCN message (σ > 0).
func (m *Message) Positive() bool { return m.Sigma > 0 }

// MarshalBinary encodes the message in the Fig. 2 layout.
func (m *Message) MarshalBinary() ([]byte, error) {
	buf := new([MessageLen]byte)
	m.EncodeTo(buf)
	return buf[:], nil
}

// EncodeTo writes the Fig. 2 encoding into buf without allocating.
func (m *Message) EncodeTo(buf *[MessageLen]byte) {
	copy(buf[0:6], m.DA[:])
	copy(buf[6:12], m.SA[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeBCN)
	binary.BigEndian.PutUint16(buf[14:16], m.Flags)
	binary.BigEndian.PutUint64(buf[16:24], uint64(m.CPID))
	binary.BigEndian.PutUint32(buf[24:28], uint32(quantizeFB(m.Sigma)))
}

// UnmarshalBinary decodes a message, validating length and EtherType.
func (m *Message) UnmarshalBinary(data []byte) error {
	if len(data) < MessageLen {
		return fmt.Errorf("%w: %d bytes", ErrShortMessage, len(data))
	}
	if et := binary.BigEndian.Uint16(data[12:14]); et != EtherTypeBCN {
		return fmt.Errorf("%w: ethertype %#04x", ErrBadEtherType, et)
	}
	copy(m.DA[:], data[0:6])
	copy(m.SA[:], data[6:12])
	m.Flags = binary.BigEndian.Uint16(data[14:16])
	m.CPID = CPID(binary.BigEndian.Uint64(data[16:24]))
	m.Sigma = float64(int32(binary.BigEndian.Uint32(data[24:28]))) * FBUnit
	return nil
}

// Validate checks semantic invariants the wire format cannot express: no
// reserved flag bits, a nonzero congestion-point ID, and finite feedback.
// The BCN draft frames carry no CRC of their own in this model, so a
// corrupted frame can decode cleanly; receivers call Validate and count
// rejections instead of acting on garbage.
func (m *Message) Validate() error {
	if m.Flags&^FlagSevere != 0 {
		return fmt.Errorf("%w: reserved flag bits %#04x", ErrMalformed, m.Flags)
	}
	if m.CPID == 0 {
		return fmt.Errorf("%w: zero CPID", ErrMalformed)
	}
	if math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) {
		return fmt.Errorf("%w: non-finite sigma %v", ErrMalformed, m.Sigma)
	}
	return nil
}

// quantizeFB converts σ in bits to the signed FB count, saturating.
func quantizeFB(sigma float64) int32 {
	q := math.Round(sigma / FBUnit)
	switch {
	case q > math.MaxInt32:
		return math.MaxInt32
	case q < math.MinInt32:
		return math.MinInt32
	default:
		return int32(q)
	}
}
