package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestParseTraceBasic(t *testing.T) {
	in := strings.Join([]string{
		"op,key,key_size,size", // header
		"",
		"# comment",
		"GET,alpha,5,100",
		"SET,beta,4,200",
		"get,alpha,5,100", // ops are case-insensitive
		"DELETE,beta,4,0",
		"GET,beta,4,200",
	}, "\n")
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Gets() != 3 || tr.Sets() != 1 || tr.Deletes() != 1 {
		t.Fatalf("got %d/%d/%d gets/sets/deletes, want 3/1/1", tr.Gets(), tr.Sets(), tr.Deletes())
	}
	if tr.DistinctKeys() != 2 {
		t.Fatalf("got %d distinct keys, want 2", tr.DistinctKeys())
	}
	cat := tr.BuildCatalog()
	if cat.Len() != 2 {
		t.Fatalf("catalog has %d items, want 2", cat.Len())
	}
	// alpha appears first, so it is Key(0); sizes come from the trace.
	if got := cat.Size(Key(0)); got != 100 {
		t.Errorf("alpha size = %d, want 100", got)
	}
	if got := cat.Size(Key(1)); got != 200 {
		t.Errorf("beta size = %d, want 200", got)
	}
}

func TestParseTraceZeroSizeClamps(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("GET,k,1,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.BuildCatalog().Size(Key(0)); got != 1 {
		t.Errorf("zero-size item clamps to %d, want 1", got)
	}
}

func TestParseTraceMalformed(t *testing.T) {
	cases := map[string]string{
		"fields":     "GET,k,1\n",
		"extra":      "GET,k,1,2,3\n",
		"op":         "FROB,k,1,2\n",
		"empty-key":  "GET,,0,2\n",
		"huge-key":   "GET," + strings.Repeat("k", maxTraceKeyLen+1) + ",1,2\n",
		"key-size":   "GET,k,x,2\n",
		"size":       "GET,k,1,x\n",
		"neg-size":   "GET,k,1,-5\n",
		"huge-size":  "GET,k,1,99999999999\n",
		"bare-text":  "hello world\n",
		"long-line":  "GET,k,1," + strings.Repeat("9", maxTraceLine) + "\n",
		"mid-header": "GET,k,1,2\nop,key,key_size,size\n",
	}
	for name, in := range cases {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: malformed trace parsed without error", name)
		}
	}
}

func TestTraceSourceStriding(t *testing.T) {
	// Three GETs over two peers: peer p's k-th request must take global
	// index (p + 2k) mod 3, touching every row before wrapping.
	tr, err := ParseTrace(strings.NewReader("GET,a,1,10\nGET,b,1,10\nGET,c,1,10\n"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(tr, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var got []Key
	for k := 0; k < 3; k++ {
		for p := 0; p < 2; p++ {
			got = append(got, src.PickKey(Ctx{Peer: p, RNG: rng}))
		}
	}
	// gets = [a b c]; peer0: 0,2,(4%3)=1 -> a c b; peer1: 1,(3%3)=0,(5%3)=2 -> b a c
	want := []Key{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved picks = %v, want %v", got, want)
		}
	}
}

func TestTraceSourceRejects(t *testing.T) {
	noGets, err := ParseTrace(strings.NewReader("SET,a,1,10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceSource(noGets, 1, false); err == nil {
		t.Error("trace without GETs accepted")
	}
	noSets, err := ParseTrace(strings.NewReader("GET,a,1,10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceSource(noSets, 1, true); err == nil {
		t.Error("updates without SET rows accepted")
	}
}

func TestSyntheticTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := SyntheticTraceConfig{
		Ops: 500, Keys: 40, ZipfTheta: 0.9,
		SetFraction: 0.2, DeleteFraction: 0.1,
		MinSize: 100, MaxSize: 999, Seed: 7,
	}
	if err := WriteSyntheticTrace(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	tr, err := ParseTrace(strings.NewReader(first))
	if err != nil {
		t.Fatalf("synthetic trace does not parse: %v", err)
	}
	if tr.Gets()+tr.Sets()+tr.Deletes() != cfg.Ops {
		t.Errorf("parsed %d ops, wrote %d", tr.Gets()+tr.Sets()+tr.Deletes(), cfg.Ops)
	}
	if tr.DistinctKeys() > cfg.Keys {
		t.Errorf("%d distinct keys exceed the %d-key population", tr.DistinctKeys(), cfg.Keys)
	}
	// Determinism: same config, same bytes.
	var buf2 bytes.Buffer
	if err := WriteSyntheticTrace(&buf2, cfg); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Error("synthetic trace generation is not deterministic")
	}
}

func TestSampleTraceFixture(t *testing.T) {
	tr, err := ReadTraceFile("testdata/sample_trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Gets() == 0 || tr.Sets() == 0 {
		t.Fatalf("sample trace has %d GETs / %d SETs; both must be present for the smoke runs", tr.Gets(), tr.Sets())
	}
	if _, err := NewTraceSource(tr, 20, true); err != nil {
		t.Fatal(err)
	}
}
