package netsim

import "bcnphase/internal/bcn"

// ring is a FIFO ring buffer: switch queues hold frames in one and the
// Sim's delay lanes hold events. Push and pop never shift elements, and
// the buffer only grows (by doubling) when the backlog exceeds every
// earlier one, so a queue that hovers near its reference occupancy stops
// allocating after the first overload.
type ring[T any] struct {
	buf  []T // length is zero or a power of two
	head int
	n    int
}

func (q *ring[T]) len() int { return q.n }

// front returns the oldest element; the ring must be non-empty.
func (q *ring[T]) front() *T { return &q.buf[q.head] }

// back returns the newest element; the ring must be non-empty.
func (q *ring[T]) back() *T { return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)] }

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest element; the ring must be
// non-empty.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *ring[T]) grow() {
	buf := make([]T, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// slots is a recycled slot table. An event that needs a payload larger
// than its fields carries a slot index instead: the Sim parks evFunc
// closures here and the networks park encoded feedback frames.
type slots[T any] struct {
	v    []T
	free []int32
}

// put stores v in a free slot and returns the slot index.
func (p *slots[T]) put(v T) int32 {
	if k := len(p.free); k > 0 {
		i := p.free[k-1]
		p.free = p.free[:k-1]
		p.v[i] = v
		return i
	}
	p.v = append(p.v, v)
	return int32(len(p.v) - 1)
}

// take returns the value in slot i and releases the slot, clearing it so
// the table keeps no reference alive.
func (p *slots[T]) take(i int32) T {
	v := p.v[i]
	var zero T
	p.v[i] = zero
	p.free = append(p.free, i)
	return v
}

// wirePool holds the encoded feedback frames in flight. A feedback event
// carries its slot index instead of a closure over the bytes, the fault
// plan corrupts the slot in place, and delivery recycles the slot.
type wirePool struct {
	slots[[bcn.MessageLen]byte]
}

// put encodes msg into a free slot and returns the slot index.
func (p *wirePool) put(msg *bcn.Message) int32 {
	slot := p.slots.put([bcn.MessageLen]byte{})
	msg.EncodeTo(&p.v[slot])
	return slot
}

// wire returns the encoded bytes held in slot.
func (p *wirePool) wire(slot int32) []byte { return p.v[slot][:] }

// decode decodes slot into m and releases the slot.
func (p *wirePool) decode(slot int32, m *bcn.Message) error {
	w := p.take(slot)
	return m.UnmarshalBinary(w[:])
}
