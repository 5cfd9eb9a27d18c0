package executor

import (
	"strconv"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
)

// The synchronization protocol of §4: every edge into a synchronization
// node is annotated "reached" or "skipped" in the distributed KV store by
// the predecessor's wrapper (or by skip propagation). The condition of
// Eq 4.1 — all incoming edges annotated and at least one reached — is
// evaluated atomically with each annotation; the writer that completes the
// set invokes (or skips) the synchronization node.

// annotationKey names the KV entry holding a sync node's edge annotations
// for one invocation: "sync/<workflow>/<inv>/<node>".
func (e *Engine) annotationKey(inv uint64, node dag.NodeID) string {
	b := append(e.keyBuf[:0], "sync/"...)
	b = append(b, e.wl.Name...)
	b = append(b, '/')
	b = strconv.AppendUint(b, inv, 10)
	b = append(b, '/')
	b = append(b, node...)
	e.keyBuf = b
	return string(b)
}

// Edge annotation states, one byte per incoming edge of a sync node in
// DAG.In order.
const (
	edgeUnannotated byte = iota
	edgeReached
	edgeSkipped
)

// annotate atomically records the state of one incoming edge of a sync
// node and reports whether this update completed the annotation set
// (fire) and whether any edge was reached. fire is true for exactly one
// annotate call per (invocation, node): the one that transitions the set
// to complete. An edge keeps the state it was first annotated with.
func (e *Engine) annotate(inv uint64, edge dag.Edge, reached bool) (fire, anyReached bool) {
	in := e.wl.DAG.In(edge.To)
	slot := 0
	for i, pe := range in {
		if pe.From == edge.From {
			slot = i
		}
	}
	state := edgeSkipped
	if reached {
		state = edgeReached
	}
	e.p.KV().Update(e.annotationKey(inv, edge.To), func(cur []byte, exists bool) ([]byte, bool) {
		if !exists || len(cur) != len(in) {
			cur = make([]byte, len(in))
		}
		before := annotated(cur)
		if cur[slot] == edgeUnannotated {
			cur[slot] = state
		}
		fire = before < len(in) && annotated(cur) == len(in)
		for _, s := range cur {
			anyReached = anyReached || s == edgeReached
		}
		return cur, true
	})
	return fire, anyReached
}

// annotated counts the annotated edges in a sync node's state vector.
func annotated(states []byte) int {
	n := 0
	for _, s := range states {
		if s != edgeUnannotated {
			n++
		}
	}
	return n
}

// sendToSync stages the edge's intermediate data in the workflow KV table
// at home, annotates the edge as reached, and — when this writer completes
// the condition — publishes the invocation message to the sync node's plan
// region. It returns the updated wrapper-time offset.
func (e *Engine) sendToSync(inv *invocation, id uint64, edge dag.Edge, src region.ID, offset time.Duration) time.Duration {
	now := e.p.Scheduler().Now()
	bytes := e.wl.Bytes(edge.From, edge.To, inv.class)

	// Stage intermediate data.
	if bytes > 0 {
		inv.rec.Services.KVWrites[e.home]++
		e.logTransfer(inv, platform.TransferEvent{
			Kind: platform.TransferKVData, From: src, To: e.home, FromNode: edge.From, ToNode: edge.To, Bytes: bytes, At: now.Add(offset),
		})
		store, err := e.p.Net().TransferTime(src, e.home, bytes)
		if err == nil {
			offset += store
		}
		offset += platform.KVAccessOverhead
		if inv.stagedBytes == nil {
			inv.stagedBytes = make(map[dag.NodeID]float64)
		}
		inv.stagedBytes[edge.To] += bytes
	}

	// Atomic annotation update.
	inv.rec.Services.KVWrites[e.home]++
	offset += e.p.KVAccessLatency(src, e.home)
	fire, anyReached := e.annotate(id, edge, true)

	if fire {
		// This writer completed the set; since it reached, the
		// condition of Eq 4.1 holds and it invokes the sync node.
		_ = anyReached // reached=true implies anyReached
		offset = e.invokeSync(inv, id, edge.To, src, offset)
	}
	return offset
}

// invokeSync publishes the (small) invocation message for a satisfied
// synchronization node to its plan region.
func (e *Engine) invokeSync(inv *invocation, id uint64, node dag.NodeID, src region.ID, offset time.Duration) time.Duration {
	syncRegion := e.resolveRegion(inv, node)
	now := e.p.Scheduler().Now()
	inv.rec.Services.SNSPublishes[src]++
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferControl, From: src, To: syncRegion, ToNode: node, Bytes: controlMessageBytes, At: now.Add(offset),
	})
	inv.pending++
	latency := offset + publishCallLatency + e.p.MessageLatency(src, syncRegion, controlMessageBytes)
	if err := e.publish(id, node, syncRegion, latency); err != nil {
		inv.pending--
		inv.rec.Succeeded = false
	}
	return offset + publishCallLatency
}

// skipEdge handles an untaken conditional edge (§4 conditional DAGs): if
// the successor is a synchronization node the edge is annotated skipped
// (possibly completing — and then firing or skipping — the node);
// otherwise the successor will never run, and the skip propagates through
// it toward every downstream synchronization node. All annotations are
// written by the current wrapper (n_i in the paper's formulation).
func (e *Engine) skipEdge(inv *invocation, id uint64, edge dag.Edge, src region.ID, offset time.Duration) time.Duration {
	if e.wl.DAG.IsSync(edge.To) {
		inv.rec.Services.KVWrites[e.home]++
		offset += e.p.KVAccessLatency(src, e.home)
		fire, anyReached := e.annotate(id, edge, false)
		if fire {
			if anyReached {
				offset = e.invokeSync(inv, id, edge.To, src, offset)
			} else {
				// Every incoming edge was skipped: the sync node
				// itself is skipped and the skip propagates.
				offset = e.propagateSkipFrom(inv, id, edge.To, src, offset)
			}
		}
		return offset
	}
	return e.propagateSkipFrom(inv, id, edge.To, src, offset)
}

// propagateSkipFrom treats node as skipped and recursively skips all of
// its outgoing edges.
func (e *Engine) propagateSkipFrom(inv *invocation, id uint64, node dag.NodeID, src region.ID, offset time.Duration) time.Duration {
	for _, out := range e.wl.DAG.Out(node) {
		offset = e.skipEdge(inv, id, out, src, offset)
	}
	return offset
}
