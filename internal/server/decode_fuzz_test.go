package server

import (
	"testing"
	"time"
)

// The decoders are the server's hostile-input boundary: every byte a
// client can send flows through decodeQuery or parseUpdateOps before
// anything touches the engine. The fuzz contract is (a) never panic,
// and (b) when a decode succeeds, every cap the decoder promises
// actually holds — so downstream code may trust them without
// re-checking.

func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"nodes":[1,2,3]}`))
	f.Add([]byte(`{"nodes":[0],"variant":"NCA-DR","timeout_ms":250}`))
	f.Add([]byte(`{"nodes":[7],"no_stale":true}`))
	f.Add([]byte(`{"nodes":[]}`))
	f.Add([]byte(`{"nodes":[-1]}`))
	f.Add([]byte(`{"nodes":[1.5]}`))
	f.Add([]byte(`{"nodes":[1],"variant":"QUANTUM"}`))
	f.Add([]byte(`{"nodes":[1]}{"nodes":[2]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"nodes":[99999999999999999999]}`))
	f.Add([]byte(`{"nodes":[1],"timeout_ms":9223372036855}`))
	f.Add([]byte(`{"nodes":[1],"timeout_ms":18446744073710}`))
	const maxNodes = 64
	const defTimeout, maxTimeout = 2 * time.Second, 30 * time.Second
	f.Fuzz(func(t *testing.T, body []byte) {
		req, _, err := decodeQuery(body, maxNodes)
		if err != nil {
			return
		}
		if len(req.Nodes) == 0 || len(req.Nodes) > maxNodes {
			t.Fatalf("accepted query with %d nodes (cap %d)", len(req.Nodes), maxNodes)
		}
		for _, u := range req.Nodes {
			if u < 0 || u > maxNodeID {
				t.Fatalf("accepted out-of-range node id %d", u)
			}
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted negative timeout_ms %d", req.TimeoutMS)
		}
		if d := req.timeoutOf(defTimeout, maxTimeout); d <= 0 || d > maxTimeout {
			t.Fatalf("timeout_ms %d resolved to %v, want (0, %v]", req.TimeoutMS, d, maxTimeout)
		}
	})
}

func FuzzParseUpdateOps(f *testing.F) {
	f.Add([]byte("add 1 2\n"))
	f.Add([]byte("add 1 2 0.5\nsetw 2 3 2\ndel 1 2\nnode 4 5 6\n"))
	f.Add([]byte("# comment\n\n  add\t7 8  \n"))
	f.Add([]byte("setw 1 2\n"))
	f.Add([]byte("del 1\n"))
	f.Add([]byte("apply\n"))
	f.Add([]byte("add 1 99999999999\n"))
	f.Add([]byte("add -1 2\n"))
	f.Add([]byte("node 1 2 3 4 5 6 7 8 9 10\n"))
	const maxOps = 128
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := parseUpdateOps(body, maxOps)
		if err != nil {
			return
		}
		if b.Len() > maxOps {
			t.Fatalf("accepted batch of %d ops (cap %d)", b.Len(), maxOps)
		}
	})
}
