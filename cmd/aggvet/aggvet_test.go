package main

// End-to-end test of the vettool protocol: build aggvet, then drive it
// through a real `go vet -vettool` run over a scratch module. This is
// the executable form of the acceptance criterion "deliberately
// inserting a time.Now() into internal/des makes make lint fail".

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles aggvet once into a temp dir and returns its path.
func buildTool(t testing.TB) string {
	t.Helper()
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "aggvet")
	cmd := exec.Command("go", "build", "-o", tool, "./cmd/aggvet")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building aggvet: %v\n%s", err, out)
	}
	return tool
}

// writeModule lays out a scratch module with the given files.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module aggvetscratch\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func govet(t testing.TB, tool, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	// The scratch module has no dependencies; keep the run hermetic.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go command")
	}
	tool := buildTool(t)

	const dirty = `package des

import "time"

func Stamp() int64 {
	t := time.Now()
	_ = t
	return 0
}
`
	const clean = `package des

func Stamp() int64 { return 0 }
`
	const exempt = `package des

import "time"

func Stamp() int64 {
	t := time.Now() //aggvet:allow simclock -- proving the escape hatch end to end
	_ = t
	return 0
}
`

	t.Run("wall clock in internal/des fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/des/clock.go": dirty})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on time.Now in internal/des; output:\n%s", out)
		}
		if !strings.Contains(out, "simclock: time.Now") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("clean module passes vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/des/clock.go": clean})
		if out, err := govet(t, tool, dir); err != nil {
			t.Fatalf("go vet failed on clean module: %v\n%s", err, out)
		}
	})

	t.Run("aggvet:allow silences the diagnostic", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/des/clock.go": exempt})
		if out, err := govet(t, tool, dir); err != nil {
			t.Fatalf("go vet failed despite //aggvet:allow: %v\n%s", err, out)
		}
	})

	t.Run("unsorted key escape in internal/core fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/core/keys.go": `package core

func Keys(m map[int]int64) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on an unsorted key escape; output:\n%s", out)
		}
		if !strings.Contains(out, "maporder: map iteration order") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("sorted key materialization passes vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/core/keys.go": `package core

import "sort"

func Keys(m map[int]int64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
`})
		if out, err := govet(t, tool, dir); err != nil {
			t.Fatalf("go vet failed on the sorted-keys idiom: %v\n%s", err, out)
		}
	})

	t.Run("timer leak in internal/dist fails vet", func(t *testing.T) {
		// Uses the real time package via export data, proving the
		// flow-sensitive analyzers work through the unitchecker path.
		dir := writeModule(t, map[string]string{"internal/dist/watch.go": `package dist

import "time"

func Watch(d time.Duration, abort <-chan struct{}) bool {
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return false
	case <-abort:
		return true
	}
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on a leaked timer; output:\n%s", out)
		}
		if !strings.Contains(out, "resleak: t acquired here") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("global rand outside internal anywhere fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"pkg/jitter/jitter.go": `package jitter

import "math/rand"

func Jitter() int64 { return rand.Int63n(100) }
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on global rand.Int63n; output:\n%s", out)
		}
		if !strings.Contains(out, "seededrand: rand.Int63n") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("use after pool Put via helper fails vet", func(t *testing.T) {
		// The Put happens inside release(), so catching the read in
		// Recycle proves the bottom-up summaries survive the
		// unitchecker path against the real sync package.
		dir := writeModule(t, map[string]string{"internal/live/pool.go": `package live

import "sync"

type batch struct{ n int }

var pool = sync.Pool{New: func() any { return new(batch) }}

func release(b *batch) { pool.Put(b) }

func Recycle() int {
	b := pool.Get().(*batch)
	release(b)
	return b.n
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on a use-after-Put through a helper; output:\n%s", out)
		}
		if !strings.Contains(out, "pooluse: b.n is used after being returned to its sync.Pool") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("loop-owned field touched from another goroutine fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/dist/own.go": `package dist

type node struct {
	//aggvet:owner control
	pending int
}

//aggvet:loop control
func (n *node) control() {
	n.pending++
	go func() {
		n.pending--
	}()
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on a cross-goroutine owner access; output:\n%s", out)
		}
		if !strings.Contains(out, "loopown: field pending is owned by") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("missing unlock on early return fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/obs/reg.go": `package obs

import "sync"

type registry struct {
	mu sync.Mutex
	n  int
}

func (r *registry) bump(fail bool) int {
	r.mu.Lock()
	if fail {
		return 0
	}
	r.mu.Unlock()
	return r.n
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on a leaked lock; output:\n%s", out)
		}
		if !strings.Contains(out, "lockcheck: r.mu acquired here is not released on every path") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("lock-order cycle fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/dist/order.go": `package dist

import "sync"

type peerSet struct{ mu sync.Mutex }
type tracker struct{ mu sync.Mutex }

func ab(p *peerSet, tr *tracker) {
	p.mu.Lock()
	tr.mu.Lock()
	tr.mu.Unlock()
	p.mu.Unlock()
}

func ba(p *peerSet, tr *tracker) {
	tr.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	tr.mu.Unlock()
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on conflicting lock orders; output:\n%s", out)
		}
		if !strings.Contains(out, "lockcheck: potential deadlock") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("guarded field touched without the lock fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/obs/guard.go": `package obs

import "sync"

type counter struct {
	mu sync.Mutex
	//aggvet:guard mu
	n int
}

func peek(c *counter) int {
	return c.n
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on an unguarded field read; output:\n%s", out)
		}
		if !strings.Contains(out, "lockguard: field counter.n is read without holding c.mu") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("allocation in a noalloc closure fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"internal/agg/hot.go": `package agg

//aggvet:noalloc
func Fold(dst, src []int) []int {
	return widen(dst, src)
}

func widen(dst, src []int) []int {
	out := make([]int, len(dst)+len(src))
	copy(out, dst)
	return append(out[:len(dst)], src...)
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on an allocating noalloc closure; output:\n%s", out)
		}
		if !strings.Contains(out, "noalloc: make allocates in widen, reachable from //aggvet:noalloc function Fold") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})

	t.Run("non-exhaustive switch on a marked kind fails vet", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"pkg/wire/wire.go": `package wire

//aggvet:exhaustive
type kind byte

const (
	kindRaw  kind = 1
	kindDone kind = 2
)

func name(k kind) string {
	switch k {
	case kindRaw:
		return "raw"
	}
	return "?"
}
`})
		out, err := govet(t, tool, dir)
		if err == nil {
			t.Fatalf("go vet passed on a non-exhaustive kind switch; output:\n%s", out)
		}
		if !strings.Contains(out, "framecase: switch on") {
			t.Fatalf("diagnostic missing from output:\n%s", out)
		}
	})
}

// TestRepoZeroDiagnostics is the regression gate: the full
// thirteen-analyzer suite must report nothing on this repository. Any new finding is
// either a real bug to fix or a deliberate exception to document with
// a rationaled //aggvet:allow — never something to merge silently.
func TestRepoZeroDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over the whole module")
	}
	tool := buildTool(t)
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if out, verr := govet(t, tool, repoRoot); verr != nil {
		t.Fatalf("aggvet reports findings on the repo — fix them or add a rationaled //aggvet:allow: %v\n%s", verr, out)
	}
}

// TestAllowInventoryMode drives `aggvet -allows`: the inventory must
// list rationaled directives and fail on any missing "-- rationale".
func TestAllowInventoryMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the built tool")
	}
	tool := buildTool(t)

	const rationaled = `package p

func f() {
	_ = 0 //aggvet:allow simclock -- documented exception
}
`
	const bare = `package p

func g() {
	_ = 0 //aggvet:allow simclock
}
`

	t.Run("rationaled allows pass", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(rationaled), 0o666); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(tool, "-allows", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("-allows failed on a rationaled directive: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "simclock -- documented exception") {
			t.Fatalf("inventory line missing from output:\n%s", out)
		}
	})

	t.Run("bare allow fails", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(bare), 0o666); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(tool, "-allows", dir).CombinedOutput()
		if err == nil {
			t.Fatalf("-allows passed on a bare directive; output:\n%s", out)
		}
		if !strings.Contains(string(out), `missing "-- rationale"`) {
			t.Fatalf("malformed-directive marker missing from output:\n%s", out)
		}
	})
}

// TestRequireNoallocMode drives `aggvet -require-noalloc`: the gate
// must accept receiver-qualified pins, reject bare names shared by two
// types, and hold on the repo's real hot-path pins (the same specs
// scripts/lint.sh passes).
func TestRequireNoallocMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the built tool")
	}
	tool := buildTool(t)

	const twoTypes = `package p

type A struct{}
type B struct{}

//aggvet:noalloc
func (*A) Step() {}

func (B) Step() {}
`

	t.Run("qualified pin passes, bare is ambiguous", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(twoTypes), 0o666); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(tool, "-require-noalloc", dir+":A.Step").CombinedOutput()
		if err != nil {
			t.Fatalf("-require-noalloc rejected a qualified annotated method: %v\n%s", err, out)
		}
		out, err = exec.Command(tool, "-require-noalloc", dir+":Step").CombinedOutput()
		if err == nil {
			t.Fatalf("-require-noalloc accepted an ambiguous bare pin; output:\n%s", out)
		}
		if !strings.Contains(string(out), "qualify it as Type.Step") {
			t.Fatalf("ambiguity marker missing from output:\n%s", out)
		}
		out, err = exec.Command(tool, "-require-noalloc", dir+":B.Step").CombinedOutput()
		if err == nil {
			t.Fatalf("-require-noalloc accepted an unannotated method; output:\n%s", out)
		}
	})

	t.Run("repo hot-path pins hold", func(t *testing.T) {
		repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(tool, "-require-noalloc",
			"internal/aggtable:Table.UpdateRaw,Table.MergePartial,Shared.UpdateRaw,Shared.MergePartial")
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("repo pins failed — a hot-path //aggvet:noalloc annotation is gone: %v\n%s", err, out)
		}
	})
}

// TestHandshake verifies the two build-system handshake invocations the
// go command performs before any analysis: -V=full and -flags.
func TestHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go command")
	}
	tool := buildTool(t)

	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) < 4 || fields[1] != "version" || fields[2] != "devel" ||
		!strings.HasPrefix(fields[3], "buildID=") {
		t.Fatalf("-V=full output %q does not satisfy the go command's toolID parser", out)
	}

	out, err = exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	for _, name := range []string{
		"simclock", "seededrand", "netdeadline", "donesend",
		"maporder", "floatdet", "resleak",
		"pooluse", "loopown", "framecase",
		"lockcheck", "lockguard", "noalloc",
		"json",
	} {
		if !strings.Contains(string(out), `"`+name+`"`) {
			t.Errorf("-flags JSON missing analyzer %q:\n%s", name, out)
		}
	}
}
