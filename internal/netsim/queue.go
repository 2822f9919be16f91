package netsim

import "bcnphase/internal/bcn"

// fifo is a ring buffer of frames. Push and pop never shift elements, and
// the buffer only grows (by doubling) when the backlog exceeds every
// earlier one, so a queue that hovers near its reference occupancy stops
// allocating after the first overload.
type fifo struct {
	buf  []frame // length is zero or a power of two
	head int
	n    int
}

func (q *fifo) len() int { return q.n }

// front returns the head-of-line frame; the queue must be non-empty.
func (q *fifo) front() *frame { return &q.buf[q.head] }

func (q *fifo) push(f frame) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
}

// pop removes and returns the head-of-line frame; the queue must be
// non-empty.
func (q *fifo) pop() frame {
	f := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return f
}

func (q *fifo) grow() {
	buf := make([]frame, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// wirePool holds the encoded feedback frames in flight. A feedback event
// carries its slot index instead of a closure over the bytes, the fault
// plan corrupts the slot in place, and delivery recycles the slot.
type wirePool struct {
	slots [][bcn.MessageLen]byte
	free  []int32
}

// put encodes msg into a free slot and returns the slot index.
func (p *wirePool) put(msg *bcn.Message) int32 {
	var slot int32
	if k := len(p.free); k > 0 {
		slot = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		slot = int32(len(p.slots))
		p.slots = append(p.slots, [bcn.MessageLen]byte{})
	}
	msg.EncodeTo(&p.slots[slot])
	return slot
}

// wire returns the encoded bytes held in slot.
func (p *wirePool) wire(slot int32) []byte { return p.slots[slot][:] }

// take decodes slot into m and releases the slot.
func (p *wirePool) take(slot int32, m *bcn.Message) error {
	err := m.UnmarshalBinary(p.slots[slot][:])
	p.free = append(p.free, slot)
	return err
}
