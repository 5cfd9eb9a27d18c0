package executor

import (
	"encoding/binary"
	"errors"

	"caribou/internal/dag"
)

// The envelope is the payload of every pub/sub invocation message: which
// invocation the message belongs to and which stage it invokes. Its
// encoding is fixed and compact:
//
//	uvarint(invocation ID) · uvarint(len(node)) · node
//
// Only the executor reads these bytes. Simulated message sizes (and so
// latencies, egress cost and transmission carbon) come from the
// workload's payload model, never from len(Data).

var (
	errEnvelopeTruncated = errors.New("executor: truncated envelope")
	errEnvelopeVarint    = errors.New("executor: malformed envelope varint")
	errEnvelopeEmptyNode = errors.New("executor: envelope names no node")
	errEnvelopeTrailing  = errors.New("executor: trailing bytes after envelope")
)

// appendEnvelope appends the encoding of (inv, node) to dst.
func appendEnvelope(dst []byte, inv uint64, node dag.NodeID) []byte {
	dst = binary.AppendUvarint(dst, inv)
	dst = binary.AppendUvarint(dst, uint64(len(node)))
	return append(dst, node...)
}

// decodeEnvelope parses one envelope. node aliases data. It rejects
// truncated input, overlong or non-minimal varints, an empty node ID and
// trailing bytes, so every accepted input re-encodes to itself.
func decodeEnvelope(data []byte) (inv uint64, node []byte, err error) {
	inv, rest, err := readUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	n, rest, err := readUvarint(rest)
	if err != nil {
		return 0, nil, err
	}
	switch {
	case n == 0:
		return 0, nil, errEnvelopeEmptyNode
	case n > uint64(len(rest)):
		return 0, nil, errEnvelopeTruncated
	case n < uint64(len(rest)):
		return 0, nil, errEnvelopeTrailing
	}
	return inv, rest, nil
}

// readUvarint reads one minimally encoded uvarint from the front of b.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, nil, errEnvelopeTruncated
	case n < 0:
		return 0, nil, errEnvelopeVarint
	case n > 1 && b[n-1] == 0:
		// A zero final byte means a shorter encoding of v exists.
		return 0, nil, errEnvelopeVarint
	}
	return v, b[n:], nil
}
