package core

import (
	"sort"

	"apenetsim/internal/sim"
)

// Link-level RX flow control.
//
// Senders take a credit from the destination card's pool before injecting
// a packet toward it; the RX engine returns the credit when the packet
// leaves the link-level buffer. The pool lives with its card, on the
// destination card's shard of the engine's sim.Group (one shard unless
// more were asked for), and acquisition is a request/grant message pair:
//
//	sender shard                      destination shard
//	------------                      -----------------
//	Post request (infra, stamp t) --> creditRequest(t, seq)
//	                                    free credit: grant at max(t, freed)
//	                                    none free:   queue by key, grant on release
//	injector waits           <-- Post grant (stamp = grant time)
//	injector continues at grant time
//
// The exchange is the same at every shard count, so the outcome of every
// contended acquisition is a pure function of the model — never of
// engine scheduling or the shard count:
//
//   - Blocked requests wait in (stamp, requester rank, requester seq)
//     order — an explicit key carried with the request, not the order in
//     which a mailbox happened to deliver it. Equal-time bursts
//     (all-to-all) therefore resolve identically at every shard count.
//   - A grant is "blocked" — and costs one counted wake event, mirroring
//     a blocking semaphore acquire — exactly when its grant time exceeds
//     the request stamp. A release that lands on the same timestamp as a
//     pending request is indistinguishable from a pool that was never
//     empty, whichever side the engine happened to execute first.
//
// Every time in the exchange is computed, never read from a racing clock,
// so grants are bit-exact: a credit freed at time f serves a request
// stamped t at max(t, f).
//
// Nothing in the exchange allocates. The request is a value: the
// injector holds its one pending request's destination, stamp and
// sequence number, and posts the request callback bound in Card.Start.
// A waiter records the requesting card, not a closure: the injector is
// the only caller of creditAcquire, so a grant always runs the card's
// injector continuation, bound once per card, as its last action.
type creditLedger struct {
	// freeAt holds one entry per free credit: the time it became free
	// (zero for the initial pool). Order is immaterial; take picks the
	// earliest.
	freeAt []sim.Time
	// waiters are requests that found no free credit, kept sorted by
	// (t, card rank, seq); release grants the head.
	waiters []creditWaiter
}

// creditWaiter is one queued request: its stamp, the requesting card,
// and that card's running request counter. Stamp, rank and seq totally
// order contending requests by model state alone.
type creditWaiter struct {
	t    sim.Time
	card *Card
	seq  uint64
}

func waiterBefore(a, b creditWaiter) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.card.Rank != b.card.Rank {
		return a.card.Rank < b.card.Rank
	}
	return a.seq < b.seq
}

func newCreditLedger(credits int) *creditLedger {
	return &creditLedger{freeAt: make([]sim.Time, credits)}
}

// take hands the earliest-freed credit to a request stamped t, granted
// at max(t, freed); ok is false when the pool is empty.
func (l *creditLedger) take(t sim.Time) (at sim.Time, ok bool) {
	n := len(l.freeAt)
	if n == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < n; i++ {
		if l.freeAt[i] < l.freeAt[best] {
			best = i
		}
	}
	at = l.freeAt[best]
	l.freeAt[best] = l.freeAt[n-1]
	l.freeAt = l.freeAt[:n-1]
	if at < t {
		at = t
	}
	return at, true
}

// wait queues a request that found the pool empty, in key order.
func (l *creditLedger) wait(w creditWaiter) {
	i := sort.Search(len(l.waiters), func(i int) bool { return waiterBefore(w, l.waiters[i]) })
	l.waiters = append(l.waiters, creditWaiter{})
	copy(l.waiters[i+1:], l.waiters[i:])
	l.waiters[i] = w
}

// release returns one credit at time at. With a request waiting, the
// credit goes to the first in key order, granted at max(at, its stamp),
// and ok is true; otherwise it goes back to the pool. The head is popped
// by shifting the queue down, so the backing array is kept and a later
// wait does not reallocate it.
func (l *creditLedger) release(at sim.Time) (w creditWaiter, grant sim.Time, ok bool) {
	if len(l.waiters) == 0 {
		l.freeAt = append(l.freeAt, at)
		return creditWaiter{}, 0, false
	}
	w = l.waiters[0]
	n := copy(l.waiters, l.waiters[1:])
	l.waiters[n] = creditWaiter{}
	l.waiters = l.waiters[:n]
	if w.t > at {
		at = w.t
	}
	return w, at, true
}

// creditAcquire posts this card's injector's request for one RX credit
// of dest, for the packet it is about to inject; the grant runs the
// injector's continuation. The injector has at most one request out and
// touches none of its fields until the grant runs, and the barrier
// orders these writes before dest's shard reads them.
func (c *Card) creditAcquire(dest *Card) {
	in := &c.inj
	in.reqT, in.reqSeq = c.Eng.Now(), c.creditSeq
	c.creditSeq++
	c.Eng.Post(dest.Eng.Shard(), in.reqT, true, in.request)
}

// creditRequest serves card from's request, stamped t, on this card's
// shard: granted at once from the pool, or queued until a release.
func (c *Card) creditRequest(from *Card, t sim.Time, seq uint64) {
	if at, ok := c.ledger.take(t); ok {
		c.grantCredit(from, t, at)
		return
	}
	c.ledger.wait(creditWaiter{t: t, card: from, seq: seq})
}

// grantCredit continues the injector of card to, whose request stamped t
// got one of this card's credits at time at. A blocked grant (at > t)
// costs one counted event, the semaphore parity; an equal-time one is
// bookkeeping only. It runs on this card's shard.
func (c *Card) grantCredit(to *Card, t, at sim.Time) {
	blocked := at > t
	c.Eng.Post(to.Eng.Shard(), at, !blocked, to.inj.run)
}

// creditRelease returns one RX credit of this card at time at, granting
// it to the first waiting request if any. It must run on the card's own
// shard (the RX engine and loss handling do).
func (c *Card) creditRelease(at sim.Time) {
	if w, grant, ok := c.ledger.release(at); ok {
		c.grantCredit(w.card, w.t, grant)
	}
}
