package core

import (
	"fmt"

	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// Stage-level op instrumentation. Every PUT and GET is tagged with a
// cluster-unique operation key; the card and network emit one span event
// per pipeline stage (submit, txq, inject, per-hop wire, rx_validate,
// rx_translate, rx_dma, deliver, and serve for the GET responder leg)
// carrying that key, and internal/opmetrics folds the spans back into
// flat per-op records. All emits are gated on the recorder being in
// stage-capture mode (trace.Recorder.SetStages), so pre-existing
// recorders — and the committed baselines counting their events — see an
// unchanged event stream.

// opKey returns the operation key stage events are tagged with: the wire
// job ID for PUTs, and the GET-family key for every leg of a GET — the
// request job, the responder's serve, and the reply job all fold into
// one record.
func opKey(job *TXJob) uint64 {
	if job.get != nil {
		return getOpKey(job.get.reqID, job.get.requester)
	}
	return job.ID
}

// getOpKey packs a GET's (reqID, requester rank) like assignJobID packs
// wire IDs, with bit 63 marking the GET family so keys never collide
// with PUT wire IDs.
func getOpKey(reqID uint64, requester int) uint64 {
	return 1<<63 | reqID<<16 | uint64(requester&0xffff)
}

// stage emits one op-stage span on the card's recorder. Callers check
// c.Rec.Stages() first, so a note is formatted only under stage capture
// and a run without it pays nothing for its notes.
func (c *Card) stage(t0, t1 sim.Time, kind string, job *TXJob, bytes units.ByteSize, note string) {
	c.Rec.EmitOp(t0, t1, c.Name+".op", kind, opKey(job), int64(bytes), note)
}

// stageNote builds the submit-stage note carrying the op's endpoints, the
// handle opmetrics uses to attribute src/dst/kind.
func stageNote(job *TXJob, src int) string {
	return fmt.Sprintf("kind=%s src=%d dst=%d", job.Kind, src, job.DstRank)
}

// legNote builds the wire-hop note: which leg of the op this packet
// belongs to, which ranks the hop connects, and whether the router left
// the dimension-ordered path for it (dev=1; fault=1 when links marked
// down forced the deviation). The renderer reads the flags to mark
// detoured packets even when the detour keeps the hop count minimal —
// on a size-2 dimension the wraparound detour visits the same ranks.
func legNote(job *TXJob, seq, from, to int, dec route.Decision) string {
	s := fmt.Sprintf("leg=%s seq=%d from=%d to=%d", job.Kind, seq, from, to)
	if dec.Deviated {
		s += " dev=1"
	}
	if dec.FaultDetour {
		s += " fault=1"
	}
	return s
}
