package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseTrace fuzzes the cachelib trace parser with arbitrary byte
// strings, seeded from valid rows and the corruption classes the unit
// tests cover (committed corpus under testdata/fuzz/FuzzParseTrace).
// The parser's contract: on any input it either returns a coherent
// Trace — op counts consistent, every replayed index inside the
// catalog, catalog sizes positive and bounded — or a descriptive error.
// Never a panic, never unbounded memory beyond the input's own size.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte("op,key,key_size,size\nGET,a,1,100\nSET,b,1,200\nDELETE,a,1,0\n"))
	f.Add([]byte("GET,a,1,100\n"))
	f.Add([]byte(""))
	f.Add([]byte("# only a comment\n\n"))
	f.Add([]byte("GET,a,1\n"))                                    // short row
	f.Add([]byte("GET,a,1,2,3\n"))                                // long row
	f.Add([]byte("FROB,a,1,100\n"))                               // unknown op
	f.Add([]byte("GET,,1,100\n"))                                 // empty key
	f.Add([]byte("GET,a,one,100\n"))                              // non-numeric
	f.Add([]byte("GET,a,1,-100\n"))                               // negative
	f.Add([]byte("GET,a,1,9999999999999999999999\n"))             // overflow
	f.Add([]byte("get,A,1,1\nGeT,A,1,1\n"))                       // case folding
	f.Add([]byte("GET," + strings.Repeat("k", 2000) + ",1,1\n"))  // huge key
	f.Add(bytes.Repeat([]byte("GET,hot,3,50\n"), 64))             // repetition
	f.Add([]byte("GET,a,1,100"))                                  // no trailing newline
	f.Add([]byte("GET,a,1,100\r\nSET,b,1,1\r\n"))                 // CRLF
	f.Add([]byte{0xff, 0xfe, 0x00, ','})                          // binary noise
	f.Add([]byte("op,key,key_size,size\nop,key,key_size,size\n")) // repeated header

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Fatal("ParseTrace returned partial state alongside an error")
			}
			return
		}
		if tr.Gets() < 0 || tr.Sets() < 0 || tr.Deletes() < 0 {
			t.Fatal("negative op counts")
		}
		n := tr.DistinctKeys()
		for _, idx := range tr.gets {
			if int(idx) >= n {
				t.Fatalf("GET index %d outside %d distinct keys", idx, n)
			}
		}
		for _, idx := range tr.sets {
			if int(idx) >= n {
				t.Fatalf("SET index %d outside %d distinct keys", idx, n)
			}
		}
		cat := tr.BuildCatalog()
		if cat.Len() != n {
			t.Fatalf("catalog has %d items for %d distinct keys", cat.Len(), n)
		}
		for i := 0; i < n; i++ {
			if sz := cat.Size(Key(i)); sz < 1 || sz > maxTraceItemSize {
				t.Fatalf("key %d has size %d outside [1, %d]", i, sz, maxTraceItemSize)
			}
		}
		// An accepted trace with GET rows must drive a source without
		// erroring or panicking.
		if tr.Gets() > 0 {
			if _, err := NewTraceSource(tr, 3, false); err != nil {
				t.Fatalf("parsed trace rejected by the source: %v", err)
			}
		}
	})
}
