package executor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, inv := range []uint64{0, 1, 127, 128, 300, 1 << 35, 1<<64 - 1} {
		for _, node := range []dag.NodeID{"a", "text2speech", "stage/with/slashes", "ünïcode", dag.NodeID(bytes.Repeat([]byte("n"), 300))} {
			prefix := []byte("keep")
			enc := appendEnvelope(prefix, inv, node)
			if !bytes.HasPrefix(enc, []byte("keep")) {
				t.Fatalf("appendEnvelope clobbered its destination: %q", enc)
			}
			gotInv, gotNode, err := decodeEnvelope(enc[len("keep"):])
			if err != nil {
				t.Fatalf("decode(%d, %q): %v", inv, node, err)
			}
			if gotInv != inv || string(gotNode) != string(node) {
				t.Errorf("round trip (%d, %q) = (%d, %q)", inv, node, gotInv, gotNode)
			}
		}
	}
}

func TestEnvelopeRejectsMalformed(t *testing.T) {
	valid := appendEnvelope(nil, 300, "stage")
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errEnvelopeTruncated},
		{"invocation only", binary.AppendUvarint(nil, 300), errEnvelopeTruncated},
		{"truncated invocation varint", []byte{0x80}, errEnvelopeTruncated},
		{"truncated node", valid[:len(valid)-1], errEnvelopeTruncated},
		{"trailing byte", append(append([]byte(nil), valid...), 'x'), errEnvelopeTrailing},
		{"empty node", []byte{0x01, 0x00}, errEnvelopeEmptyNode},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11), errEnvelopeVarint},
		{"non-minimal invocation", []byte{0x81, 0x00, 0x01, 'a'}, errEnvelopeVarint},
		{"non-minimal length", []byte{0x01, 0x81, 0x00, 'a'}, errEnvelopeVarint},
		{"length past input", []byte{0x01, 0xff, 0xff, 0x03, 'a'}, errEnvelopeTruncated},
		{"JSON envelope", []byte(`{"inv":1,"node":"a"}`), errEnvelopeTruncated},
	}
	for _, c := range cases {
		if _, _, err := decodeEnvelope(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: decode(%x) error = %v, want %v", c.name, c.data, err, c.want)
		}
	}
}

// FuzzEnvelope checks that decoding arbitrary bytes never panics, that
// every accepted input is the canonical encoding of what it decodes to,
// and that any (invocation, node) pair survives a round trip.
func FuzzEnvelope(f *testing.F) {
	f.Add(appendEnvelope(nil, 1, "validate"), uint64(1), "validate")
	f.Add(appendEnvelope(nil, 1<<64-1, "compress"), uint64(1<<64-1), "compress")
	f.Add([]byte{}, uint64(0), "")
	f.Add([]byte{0x80, 0x00, 0x01, 'a'}, uint64(128), "a")
	f.Fuzz(func(t *testing.T, data []byte, inv uint64, node string) {
		if gotInv, gotNode, err := decodeEnvelope(data); err == nil {
			if len(gotNode) == 0 {
				t.Fatalf("decode(%x) accepted an empty node", data)
			}
			if re := appendEnvelope(nil, gotInv, dag.NodeID(gotNode)); !bytes.Equal(re, data) {
				t.Fatalf("decode(%x) = (%d, %q), which encodes to %x", data, gotInv, gotNode, re)
			}
		}
		if node == "" {
			return
		}
		gotInv, gotNode, err := decodeEnvelope(appendEnvelope(nil, inv, dag.NodeID(node)))
		if err != nil || gotInv != inv || string(gotNode) != node {
			t.Fatalf("round trip (%d, %q) = (%d, %q, %v)", inv, node, gotInv, gotNode, err)
		}
	})
}

// TestMalformedEnvelopeIsDropped delivers garbage on a live deployment's
// topic: the handler must reject it (the broker retries, then drops it)
// without disturbing the engine.
func TestMalformedEnvelopeIsDropped(t *testing.T) {
	sched, p := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, workloads.Text2SpeechCensoring(), ModeCaribou, HomeOnly{}, &recs)
	ref := platform.FunctionRef{Workflow: e.wl.Name, Node: "validate", Region: region.USEast1}
	for _, data := range [][]byte{{0xff}, appendEnvelope(nil, 1, "compress")} {
		if err := p.Publish(ref.Topic(), data, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if _, _, dropped, _ := p.Broker().Stats(); dropped != 2 {
		t.Errorf("dropped %d messages, want both malformed ones", dropped)
	}
	if e.Live() != 0 || len(recs) != 0 {
		t.Errorf("malformed messages touched the engine: %d live, %d records", e.Live(), len(recs))
	}
}
