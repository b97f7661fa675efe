package noc

// packetQueue is an unbounded FIFO of packets backing a node's source
// queue. It uses a slice that rewinds whenever the queue drains and is
// compacted, amortized, while it does not.
//
// (Flit buffering needs no counterpart: the per-VC flit rings live inline
// in the network's flat bufs array, managed by the bufHead/bufLen fields
// of each vcState record.)
type packetQueue struct {
	items []*Packet
	head  int
}

// Len returns the number of queued packets.
func (q *packetQueue) Len() int { return len(q.items) - q.head }

// Push appends a packet.
func (q *packetQueue) Push(p *Packet) { q.items = append(q.items, p) }

// Pop removes and returns the oldest packet; nil if empty.
func (q *packetQueue) Pop() *Packet {
	if q.Len() == 0 {
		return nil
	}
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		// Drained: start over at slot 0. Without this a queue that never
		// holds more than a packet or two still creeps through its slice
		// and regrows it until the compaction below first triggers.
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return p
}

// reset empties the queue, keeping its capacity.
func (q *packetQueue) reset() {
	clear(q.items[:cap(q.items)]) // compaction leaves stale pointers past len
	q.items = q.items[:0]
	q.head = 0
}
