package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// Event is one NDJSON line of a job stream. A submission's response body
// is a sequence of events: queued, started (leader runs only), zero or
// more progress/chunk interleavings, then exactly one done or error.
// Concatenating the Text of every chunk event reproduces the batch CLI
// output byte for byte.
type Event struct {
	// Type is queued, started, progress, chunk, done, or error.
	Type string `json:"type"`
	// Key is the job's content address (on queued).
	Key string `json:"key,omitempty"`
	// Done/Total report sweep progress in traces (on progress).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Text is a fragment of the rendered output (on chunk).
	Text string `json:"text,omitempty"`
	// Served names what resolved the job: a tier name (memory or disk)
	// for a cache hit, "computed" for a fresh run, "shared" for a
	// single-flight join (on done).
	Served string `json:"served,omitempty"`
	// ElapsedSeconds is the server-side wall clock of the job (on done).
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Error is the failure message (on error).
	Error string `json:"error,omitempty"`
}

// job is one in-flight submission. Events are buffered so subscribers
// that join mid-run (single-flight followers of an identical submission)
// replay the full stream from the start.
type job struct {
	key string

	mu     sync.Mutex
	cond   *sync.Cond
	events []Event
	closed bool
}

func newJob(key string) *job {
	j := &job{key: key}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// publish appends an event and wakes every subscriber.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.closed = j.closed || ev.Type == "done" || ev.Type == "error"
	j.mu.Unlock()
	j.cond.Broadcast()
}

// streamTo writes the job's events to w as NDJSON from the beginning,
// following live until the job closes. It flushes after every event so
// clients see progress as it happens.
func (j *job) streamTo(w io.Writer) error {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	i := 0
	for {
		j.mu.Lock()
		for i >= len(j.events) && !j.closed {
			j.cond.Wait()
		}
		batch := j.events[i:]
		closed := j.closed
		j.mu.Unlock()
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			i++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if closed && func() bool { j.mu.Lock(); defer j.mu.Unlock(); return i >= len(j.events) }() {
			return nil
		}
	}
}

// chunkSize is the streaming granularity: small enough that tables
// appear as they render, large enough to keep event overhead negligible.
const chunkSize = 8 << 10

// chunkWriter turns report output writes into chunk events while
// accumulating the complete byte stream for caching.
type chunkWriter struct {
	j       *job
	full    []byte
	pending []byte
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.full = append(c.full, p...)
	c.pending = append(c.pending, p...)
	for len(c.pending) >= chunkSize {
		c.j.publish(Event{Type: "chunk", Text: string(c.pending[:chunkSize])})
		c.pending = c.pending[chunkSize:]
	}
	return len(p), nil
}

// flush emits any buffered tail as a final chunk.
func (c *chunkWriter) flush() {
	if len(c.pending) > 0 {
		c.j.publish(Event{Type: "chunk", Text: string(c.pending)})
		c.pending = nil
	}
}
