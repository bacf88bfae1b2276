package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"syscall"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/server"
)

// daemon is one sweep daemon serving the store under a directory.
type daemon interface {
	// start serves dir and returns the daemon's base URL once it answers.
	start(dir string) (string, error)
	// stop shuts the daemon down and waits until it has exited.
	stop() error
}

// procDaemon runs `rebase serve` as a child process.
type procDaemon struct {
	e   *env
	ps  *procStats
	cmd *exec.Cmd
}

func (d *procDaemon) start(dir string) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	d.cmd = d.e.command("serve", "-addr", addr, "-cache-dir", dir, "-q")
	var stderr bytes.Buffer
	d.cmd.Stderr = &stderr
	if err := d.cmd.Start(); err != nil {
		return "", err
	}
	url := "http://" + addr
	if err := waitHealthy(url); err != nil {
		d.stop()
		return "", fmt.Errorf("rebase serve: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return url, nil
}

func (d *procDaemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	cmd.Process.Signal(syscall.SIGTERM)
	err := cmd.Wait()
	d.ps.add(cmd.ProcessState)
	return err
}

// waitHealthy polls the daemon's /healthz until it answers. The poll
// interval is a small share of the few milliseconds a daemon takes to
// start, which serve's setup_s times through this wait.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 30s: %v", err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// inprocDaemon composes the daemon in this process the way `rebase serve`
// does, with a timing backend around each cache tier.
type inprocDaemon struct {
	rec *recorder
	ctr *counters

	srv   *server.Server
	done  chan error
	cache *experiments.ResultCache
	slabs *experiments.SlabStore
	exp   *expstore.Store
}

func (d *inprocDaemon) start(dir string) (string, error) {
	sp := d.rec.begin("resultcache.open", -1)
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dir})
	d.rec.end(sp, nil)
	if err != nil {
		return "", err
	}
	// The memory tier starts empty and takes every promotion; the disk
	// tier holds every cell, so it may miss and take writes only for the
	// whole-job blobs.
	jobs := jobKeys()
	backend := resultcache.NewTiered(
		timedBackend{resultcache.NewMemory(0), d.rec, d.ctr, func(resultcache.Key) bool { return true }},
		timedBackend{disk, d.rec, d.ctr, func(k resultcache.Key) bool { return jobs[k] }},
	)
	d.cache = experiments.NewResultCache(backend)
	base := experiments.SweepConfig{Cache: d.cache}
	if ckpts, err := experiments.OpenCheckpointCache(dir, 0); err == nil {
		base.Checkpoints = ckpts
	}
	sp = d.rec.begin("tracestore.open", -1)
	d.slabs, err = experiments.OpenSlabStore(dir+"/slabs", 0, warnf)
	d.rec.end(sp, nil)
	if err == nil {
		base.Slabs = d.slabs
	}
	sp = d.rec.begin("expstore.open", -1)
	d.exp, err = expstore.Open(expstore.Config{Dir: dir + "/exp", Warn: warnf})
	d.rec.end(sp, nil)
	if err == nil {
		base.Exp = d.exp
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return "", err
	}
	d.srv = server.New(server.Config{Backend: backend, Base: base, Workers: 1})
	d.done = make(chan error, 1)
	go func() { d.done <- d.srv.Serve(l) }()
	// Serving starts in the goroutine; a Shutdown that ran before it
	// would leave it serving forever.
	url := "http://" + l.Addr().String()
	if err := waitHealthy(url); err != nil {
		d.stop()
		return "", err
	}
	return url, nil
}

// stop drains the server and closes the stores in the reverse of the
// order `rebase serve` opens them.
func (d *inprocDaemon) stop() error {
	var err error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = d.srv.Shutdown(ctx)
		cancel()
		if serr := <-d.done; err == nil {
			err = serr
		}
		d.srv = nil
	}
	if d.exp != nil {
		sp := d.rec.begin("expstore.close", -1)
		d.exp.Close()
		d.rec.end(sp, nil)
		es := d.exp.Stats()
		d.ctr.add(func(c *counters) { c.expWritten += es.BytesWritten })
		d.exp = nil
	}
	if d.slabs != nil {
		sp := d.rec.begin("tracestore.close", -1)
		d.slabs.Close()
		d.rec.end(sp, nil)
		d.ctr.addSlabStats(d.slabs.Stats())
		d.slabs = nil
	}
	if d.cache != nil {
		d.cache.Close()
		d.cache = nil
	}
	return err
}

// jobKeys returns the content address of every job the serve workload
// submits, as this process's daemon derives it.
func jobKeys() map[resultcache.Key]bool {
	keys := map[resultcache.Key]bool{}
	for _, s := range expSpecs() {
		js := server.JobSpec{Exp: s.Exp, Step: s.Step}
		keys[js.Key()] = true
	}
	return keys
}

// submit posts s as a job and returns the text the daemon streams back. A
// job error event is an error.
func submit(url string, s spec) ([]byte, error) {
	body, err := json.Marshal(server.JobSpec{Exp: s.Exp, Step: s.Step})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var text bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad event: %v", err)
		}
		switch ev.Type {
		case "chunk":
			text.WriteString(ev.Text)
		case "error":
			return nil, fmt.Errorf("job error: %s", ev.Error)
		case "done":
			// Drained to EOF, the connection goes back to the client's
			// pool: every submission after a daemon's first reuses it.
			_, err := io.Copy(io.Discard, resp.Body)
			return text.Bytes(), err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a done event")
}

// status reads the daemon's /status.
func status(url string) (server.Status, error) {
	var st server.Status
	resp, err := http.Get(url + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}
