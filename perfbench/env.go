package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is the benchmark's working area inside the checkout: the rebase
// binary the wrapper script built, and the populated store every warm
// workload starts from.
type env struct {
	build  string // build directory, e.g. <checkout>/.bench_build
	rebase string // the rebase binary built from the checkout
	master string // store populated by `rebase -exp all -step 9`
	// tracedMaster is the same store populated in process, for the traced
	// runs.
	tracedMaster string
	runDir       string // this run's scratch directory
}

func newEnv(build string) (*env, error) {
	build, err := filepath.Abs(build)
	if err != nil {
		return nil, err
	}
	e := &env{
		build:        build,
		rebase:       filepath.Join(build, "bin", "rebase"),
		master:       filepath.Join(build, "master"),
		tracedMaster: filepath.Join(build, "master-traced"),
		runDir:       filepath.Join(build, "run"),
	}
	if _, err := os.Stat(e.rebase); err != nil {
		return nil, fmt.Errorf("rebase binary not built: %w", err)
	}
	return e, nil
}

// procStats accumulates the resources the program's processes used.
type procStats struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

func (p *procStats) add(st *os.ProcessState) {
	p.cpu += st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		p.maxRSS = max(p.maxRSS, ru.Maxrss*1024) // Linux reports KiB
	}
}

// command returns a rebase invocation that dies with the benchmark.
func (e *env) command(args ...string) *exec.Cmd {
	cmd := exec.Command(e.rebase, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runRebase runs one rebase invocation to completion and returns its
// standard output; a non-zero exit is an error carrying its stderr.
func (e *env) runRebase(ps *procStats, args ...string) ([]byte, error) {
	cmd := e.command(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if cmd.ProcessState != nil {
		ps.add(cmd.ProcessState)
	}
	if err != nil {
		return stdout.Bytes(), fmt.Errorf("rebase %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return stdout.Bytes(), nil
}

// ensureMaster populates the master store with a cold `-exp all -step 9`
// unless it already holds one made by this exact binary. It is built once
// per checkout, outside every measured and set-up interval.
func (e *env) ensureMaster() error {
	return e.populate(e.master, e.rebase, func(dir string) ([]byte, error) {
		return e.runRebase(&procStats{}, spec{Exp: populateExp, Step: populateStep}.args(dir)...)
	})
}

// ensureTracedMaster populates the store the traced runs start from. Result
// keys carry the build fingerprint of the process that computed them,
// which for an unversioned build is its executable's hash, so the traced
// runs, which compute in this process, need a result cache and experiment
// store of their own. Slab keys carry no fingerprint: the master's slabs
// are linked in, and only the simulations run again.
func (e *env) ensureTracedMaster() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return e.populate(e.tracedMaster, self, func(dir string) ([]byte, error) {
		if err := linkTree(filepath.Join(e.master, "slabs"), filepath.Join(dir, "slabs")); err != nil {
			return nil, err
		}
		return (&inproc{}).do(spec{Exp: populateExp, Step: populateStep}, dir, true)
	})
}

// populate fills dir by running fill on a fresh directory, unless dir was
// already filled by the binary at exe; the binary's hash is kept in a stamp
// file next to dir.
func (e *env) populate(dir, exe string, fill func(dir string) ([]byte, error)) error {
	sum, err := fileSHA256(exe)
	if err != nil {
		return err
	}
	stamp := dir + ".stamp"
	if b, err := os.ReadFile(stamp); err == nil && string(b) == sum {
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: populating %s (one cold -exp all -step 9)\n", dir)
	tmp := dir + ".tmp"
	for _, d := range []string{dir, tmp, stamp} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	s := spec{Exp: populateExp, Step: populateStep}
	out, err := fill(tmp)
	if err == nil {
		err = checkOutput(s, out)
	}
	if err != nil {
		return fmt.Errorf("populate %s: %w", dir, err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return os.WriteFile(stamp, []byte(sum), 0o644)
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// linkTree recreates src under dst with every file hard-linked: a copy of
// the populated store in milliseconds and no disk space. The stores write
// new files and rename them into place, and never reopen one for writing
// (they only refresh mtimes for LRU order), so a run cannot change the
// master's contents through its links.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return os.Link(path, target)
	})
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// runRecord identifies the machine and the code a result was measured on.
type runRecord struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"git_revision"`
	Dirty     string `json:"git_dirty"` // "true", "false" or "unknown"
	BinarySHA string `json:"rebase_sha256"`
	Timestamp string `json:"timestamp"`
}

// newRunRecord reads the revision from the build information Go stamps
// into the binary; a checkout that is not a git repository has none.
func (e *env) newRunRecord() runRecord {
	r := runRecord{
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Revision:  "unknown",
		Dirty:     "unknown",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	r.BinarySHA, _ = fileSHA256(e.rebase)
	if bi, err := buildinfo.ReadFile(e.rebase); err == nil {
		r.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Revision = s.Value
			case "vcs.modified":
				r.Dirty = s.Value
			}
		}
	}
	return r
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
