// Package queue is the bounded-queue overflow hand-off shared by the
// in-process simulator (internal/netsim) and the real network ingest
// frontend (internal/transport). Both layers face the same question — what
// does a producer do when the consumer's bounded queue is full? — and
// Offer is the one answer: both hosts hand every item to their queue
// through it, so a scenario tuned against the simulator maps one-to-one
// onto the live server's backpressure knobs.
package queue

import "fmt"

// Policy selects what an enqueue does when the receiving queue is full.
type Policy int

// The queue-overflow policies.
const (
	// Block counts the stall, then blocks until the receiver drains —
	// lossless backpressure. On a real TCP ingest path the block
	// propagates into the kernel socket buffer and from there to the
	// sender's congestion window.
	Block Policy = iota
	// DropNewest discards the arriving item (tail drop).
	DropNewest
	// DropOldest evicts the oldest queued item to admit the new one.
	DropOldest
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Parse maps the flag spellings used by pnmlive/pnmserve to a Policy.
func Parse(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-newest":
		return DropNewest, nil
	case "drop-oldest":
		return DropOldest, nil
	}
	return 0, fmt.Errorf("queue: unknown policy %q (want block, drop-newest or drop-oldest)", s)
}

// Outcome is what Offer did with the item.
type Outcome int

// The Offer outcomes.
const (
	// Admitted: the queue took the item.
	Admitted Outcome = iota
	// Refused: the queue was full under DropNewest; the caller still owns
	// the item.
	Refused
	// Stopped: stop closed before the queue took the item; the caller
	// still owns it.
	Stopped
	// Aborted: abort closed while a Block offer waited; the caller still
	// owns the item.
	Aborted
)

// Offer hands v to ch, applying policy p only when ch is full. The
// non-blocking send comes first, so an item that finds room costs one
// select and no allocation. On a full queue:
//
//   - Block calls stall once, then waits for room, for stop or for abort
//     (a nil abort never fires).
//   - DropNewest returns Refused.
//   - DropOldest receives the oldest queued item and passes it to evict —
//     the caller owns it from then on — until v is admitted, evicting
//     again whenever another producer takes the freed slot first. A closed
//     stop ends the loop: a stopped consumer never drains, so racing
//     producers would otherwise evict each other's items forever.
//
// stall is called only under Block and evict only under DropOldest; the
// unused one may be nil. Neither is retained, so a caller may pass a
// method value without it escaping.
func Offer[T any](ch chan T, v T, p Policy, stop, abort <-chan struct{}, stall func(), evict func(T)) Outcome {
	select {
	case ch <- v:
		return Admitted
	default:
	}
	switch p {
	case DropNewest:
		return Refused
	case DropOldest:
		for {
			select {
			case <-stop:
				return Stopped
			default:
			}
			select {
			case old := <-ch:
				evict(old)
			default:
				// The consumer drained it first; either way there is room
				// now — unless another producer raced in, then evict again.
			}
			select {
			case ch <- v:
				return Admitted
			default:
			}
		}
	default: // Block
		stall()
		select {
		case ch <- v:
			return Admitted
		case <-stop:
			return Stopped
		case <-abort:
			return Aborted
		}
	}
}
