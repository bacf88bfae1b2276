package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tracerebase/internal/experiments"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
)

// smokeSpec is a sweep small enough for unit tests: a handful of traces,
// a few thousand instructions.
func smokeSpec() JobSpec {
	return JobSpec{Exp: "fig1", Step: 27, Instructions: 4000, Warmup: 1000}
}

// newTestServer builds a daemon over a fresh memory+disk tiered backend
// rooted in a temp dir.
func newTestServer(t *testing.T) (*Server, *resultcache.Tiered, *resultcache.Disk) {
	t.Helper()
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	backend := resultcache.NewTiered(resultcache.NewMemory(0), disk)
	cache := experiments.NewResultCache(backend)
	t.Cleanup(func() { cache.Close() })
	srv := New(Config{
		Backend: backend,
		Base:    experiments.SweepConfig{Cache: cache},
		Workers: 2,
	})
	return srv, backend, disk
}

func TestSubmitComputesThenServesFromMemoryTier(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	spec := smokeSpec()
	first, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Served != "computed" {
		t.Fatalf("first submission served=%q, want computed", first.Served)
	}
	if len(first.Output) == 0 || !strings.Contains(string(first.Output), "Figure 1") {
		t.Fatalf("output does not look like fig1: %.120q", first.Output)
	}

	// The daemon's output must be byte-identical to the shared composition
	// run directly (which is what the batch CLI prints).
	var want bytes.Buffer
	if _, err := report.Run(experiments.SweepConfig{Instructions: spec.Instructions, Warmup: spec.Warmup},
		report.Spec{Exp: spec.Exp, Step: spec.Step}, report.Output{Text: &want}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Output, want.Bytes()) {
		t.Fatalf("daemon output differs from direct composition (%d vs %d bytes)", len(first.Output), want.Len())
	}

	// Repeat submission: a whole-job memory-tier hit, still byte-identical.
	second, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Served != "memory" {
		t.Fatalf("repeat submission served=%q, want memory", second.Served)
	}
	if !bytes.Equal(first.Output, second.Output) {
		t.Fatal("repeat submission output differs from first")
	}

	st := srv.StatusSnapshot()
	if st.JobsComputed != 1 || st.JobsFromCache != 1 {
		t.Fatalf("status: computed=%d fromCache=%d, want 1/1", st.JobsComputed, st.JobsFromCache)
	}
}

func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := smokeSpec()
	const n = 4
	outs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := (&Client{BaseURL: ts.URL}).Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = res.Output
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("submission %d output differs", i)
		}
	}
	// Single-flight across the job layer: identical concurrent submissions
	// lead to exactly one computation (followers join the stream or hit the
	// cache, depending on arrival time).
	if st := srv.StatusSnapshot(); st.JobsComputed != 1 {
		t.Fatalf("JobsComputed = %d, want 1", st.JobsComputed)
	}
}

func TestJobBlobOnDiskWhenDone(t *testing.T) {
	srv, _, disk := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	client := &Client{BaseURL: ts.URL}

	spec := smokeSpec()
	res, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The blob is written through to disk before the done event is
	// streamed, so it is durable before any shutdown.
	payload, err := disk.Get(spec.Key())
	if err != nil {
		t.Fatalf("job blob not on disk when done was streamed: %v", err)
	}
	if !bytes.Equal(payload, res.Output) {
		t.Fatal("disk blob differs from streamed output")
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestBadJobSpecRejected(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"exp":"nonsense"}`,
		`{"exp":"fig1","instructions":-5}`,
		`{"exp":"fig1","instructions":100,"warmup":100}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestStatusEndpointReportsTiers(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := (&Client{BaseURL: ts.URL}).Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Name != "memory" || st.Tiers[1].Name != "disk" {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
}

func TestJobSpecKeyNormalization(t *testing.T) {
	a := JobSpec{Exp: "fig1 , table2", Step: 1, Instructions: 150000, Warmup: 50000}
	b := JobSpec{Exp: "fig1,table2"}
	if a.Key() != b.Key() {
		t.Fatal("equivalent specs should share one key")
	}
	c := JobSpec{Exp: "fig1,table2", Instructions: 99999}
	if b.Key() == c.Key() {
		t.Fatal("different instruction budgets must not collide")
	}
}
