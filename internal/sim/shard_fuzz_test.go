package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzShardMailbox throws random op streams at the cross-shard mailbox:
// local schedules, counted and infra posts, nested mid-run posts with
// random lookahead margins, and heavy timestamp collisions. Whatever the
// input, the group must
//
//   - terminate (no barrier deadlock),
//   - fire every scheduled event exactly once,
//   - replay identically when run twice (scheduling-independence), and
//   - in conservative inputs (every mid-run post stamped at least one
//     lookahead ahead), execute each shard's local events in (t, seq)
//     order and its ingested events in (t, src, seq) order.
//
// Inputs that use the late lane (posts stamped inside the current
// window) intentionally relax the order property — those events execute
// retroactively — so only termination, exactly-once and determinism are
// asserted for them.
func FuzzShardMailbox(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 1, 10, 1, 1, 0, 10, 2, 0, 1, 10, 3})
	// Simultaneous stamps across shards, both post flavors.
	f.Add([]byte{2, 0, 0, 1, 7, 0, 1, 1, 0, 7, 0, 2, 0, 1, 7, 0, 1, 1, 0, 7, 0})
	// Chained schedules interleaved with no-op records (op 3).
	f.Add([]byte{4, 0, 0, 0, 5, 0, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 3, 0, 0, 0, 0})
	// Late-lane posts (delta below the lookahead) and nested chains.
	f.Add([]byte{1, 0, 0, 0, 3, 9, 4, 1, 0, 6, 2, 1, 1, 0, 3, 8, 0, 0, 1, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, okFirst := mailboxStorm(t, data)
		if !okFirst {
			return
		}
		second, _ := mailboxStorm(t, data)
		if !bytes.Equal(first, second) {
			t.Fatalf("same input replayed differently:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// mailboxStorm interprets data as an op stream, runs the group, checks
// the invariants, and returns the execution log for replay comparison.
func mailboxStorm(t *testing.T, data []byte) ([]byte, bool) {
	if len(data) == 0 {
		return nil, false
	}
	const lookahead = 100 * Nanosecond
	shards := 2 + int(data[0])%3
	eng := New()
	defer eng.Shutdown() // retire the group's persistent workers
	g := NewGroup(eng, shards, lookahead)

	type entry struct {
		shard int
		ext   bool
		t     Time
		seq   uint64 // engine seq (local) or post seq (ext)
		src   int
	}
	// Per-shard logs: each written only by its own shard (worker during
	// the run, host context before it), so no locking and — because each
	// shard's execution order is the deterministic merge order — a
	// replay-comparable record.
	logs := make([][]entry, shards)
	record := func(e entry) { logs[e.shard] = append(logs[e.shard], e) }

	// Fired counters are shared across workers (a nested post allocates
	// its id mid-run); a 1-slot channel serializes them. Ids may be
	// assigned in racy order across runs, but they are only used for
	// per-id exactly-once accounting, which is permutation-invariant.
	var scheduled int
	var fired []int
	firedMu := make(chan struct{}, 1)
	firedMu <- struct{}{}
	newID := func() int {
		<-firedMu
		id := scheduled
		scheduled++
		fired = append(fired, 0)
		firedMu <- struct{}{}
		return id
	}
	hit := func(id int) {
		<-firedMu
		fired[id]++
		firedMu <- struct{}{}
	}

	postSeq := make([]uint64, shards)
	conservative := true

	post := func(src, dst int, stamp Time, infra bool) {
		id := newID()
		seq := postSeq[src]
		postSeq[src]++
		g.Engine(src).Post(dst, stamp, infra, func() {
			hit(id)
			record(entry{shard: dst, ext: true, t: stamp, seq: seq, src: src})
		})
	}

	// Op stream: records of 5 bytes [op, shard, peer, t, extra]. Op 3
	// is a no-op, so every op keeps the meaning it has in the corpus.
	for i := 0; i+4 < len(data); i += 5 {
		op := data[i] % 5
		s := int(data[i+1]) % shards
		d := int(data[i+2]) % shards
		stamp := Time(int64(data[i+3]) * int64(Nanosecond))
		extra := data[i+4]
		e := g.Engine(s)
		switch op {
		case 0: // local event, optionally posting a nested message mid-run
			id := newID()
			seq := e.seq
			nested := extra%3 != 0
			late := extra%9 == 8
			if late {
				conservative = false
			}
			sh, dst := s, d
			e.At(stamp, func() {
				hit(id)
				record(entry{shard: sh, t: e.now, seq: seq})
				if nested && dst != sh {
					delta := lookahead
					if late {
						delta = Duration(int64(extra)%int64(lookahead) + 1)
					}
					post(sh, dst, e.now.Add(delta), extra%2 == 0)
				}
			})
		case 1: // counted cross-shard post from host context
			if d != s {
				post(s, d, stamp, false)
			}
		case 2: // infra post from host context
			if d != s {
				post(s, d, stamp, true)
			}
		case 4: // local event chaining another local event
			id, id2 := newID(), newID()
			seq := e.seq
			sh := s
			e.At(stamp, func() {
				hit(id)
				record(entry{shard: sh, t: e.now, seq: seq})
				seq2 := e.seq
				e.After(Duration(extra)*Nanosecond, func() {
					hit(id2)
					record(entry{shard: sh, t: e.now, seq: seq2})
				})
			})
		}
	}
	if scheduled == 0 {
		return nil, false
	}

	eng.Run() // must terminate: the fuzz engine's timeout is the deadlock detector

	for id, n := range fired {
		if n != 1 {
			t.Fatalf("event %d fired %d times, want exactly once", id, n)
		}
	}

	// Order invariants, conservative inputs only.
	if conservative {
		for s, es := range logs {
			var local, ext []entry
			for _, en := range es {
				if en.ext {
					ext = append(ext, en)
				} else {
					local = append(local, en)
				}
			}
			for i := 1; i < len(local); i++ {
				a, b := local[i-1], local[i]
				if a.t > b.t || (a.t == b.t && a.seq > b.seq) {
					t.Fatalf("shard %d local events out of (t, seq) order: %+v then %+v", s, a, b)
				}
			}
			for i := 1; i < len(ext); i++ {
				a, b := ext[i-1], ext[i]
				if a.t > b.t || (a.t == b.t && (a.src > b.src || (a.src == b.src && a.seq > b.seq))) {
					t.Fatalf("shard %d ingested events out of (t, src, seq) order: %+v then %+v", s, a, b)
				}
			}
		}
	}

	var buf bytes.Buffer
	for s, es := range logs {
		fmt.Fprintf(&buf, "[shard %d]", s)
		for _, en := range es {
			fmt.Fprintf(&buf, "%d/%v/%v/%d/%d;", en.shard, en.ext, en.t, en.src, en.seq)
		}
	}
	return buf.Bytes(), true
}
