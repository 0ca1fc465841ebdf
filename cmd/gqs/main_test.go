package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gqs/internal/core"
	"gqs/internal/experiments"
)

// defaults returns the options of an empty command line.
func defaults(t *testing.T) options {
	t.Helper()
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestValidateRejectsNegativeCounts: option values that no campaign can
// run with, or that would silently test nothing or mean something else,
// are refused up front (run exits 2, like a flag parse error) instead
// of reaching the executor — a negative -iterations used to panic sizing
// the per-shard detection buffers, -flaky 2 failed every restart and ran
// no query, -max-rels 0 meant the library's default of 500, -retries 0
// meant 2 retries and -timeout 0 a 20s deadline. An unknown -gdb and a
// -resume without -checkpoint are refused the same way, before any
// journal is opened.
func TestValidateRejectsNegativeCounts(t *testing.T) {
	valid := defaults(t)
	if err := validate(valid); err != nil {
		t.Fatalf("the flag defaults are valid: %v", err)
	}
	for _, set := range []func(o *options){
		// 0 workers = GOMAXPROCS, 0 batch = automatic, 0 graph-scale =
		// the paper's generator, 0 checkpoint-every and -flaky 1 are
		// accepted.
		func(o *options) { o.cfg.Iterations, o.cfg.Workers, o.cfg.Batch = 0, 0, 0 },
		func(o *options) { o.cfg.Graph.Scale, o.ckEvery, o.cfg.FlakyRate = 0, 0, 1 },
		func(o *options) {
			o.cfg.Graph.MaxNodes, o.cfg.Graph.MaxRels, o.cfg.Synth.MaxSteps, o.cfg.Synth.Plan.MaxResultSet = 1, 1, 1, 1
		},
		// A negative -timeout or -retries disables the mechanism.
		func(o *options) { o.cfg.Robust.Timeout, o.cfg.Robust.Retries = -time.Second, -1 },
		// Every simulated GDB by name, and -resume with -checkpoint.
		func(o *options) { o.cfg.GDBs = []string{"reference"}; o.resume, o.checkpoint = true, "j" },
	} {
		o := valid
		set(&o)
		if err := validate(o); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	for flag, set := range map[string]func(*options){
		"-iterations":       func(o *options) { o.cfg.Iterations = -1 },
		"-workers":          func(o *options) { o.cfg.Workers = -1 },
		"-batch":            func(o *options) { o.cfg.Batch = -3 },
		"-graph-scale":      func(o *options) { o.cfg.Graph.Scale = -1 },
		"-checkpoint-every": func(o *options) { o.ckEvery = -5 },
		"-max-nodes":        func(o *options) { o.cfg.Graph.MaxNodes = 0 },
		"-max-rels":         func(o *options) { o.cfg.Graph.MaxRels = 0 },
		"-max-steps":        func(o *options) { o.cfg.Synth.MaxSteps = -2 },
		"-max-result-set":   func(o *options) { o.cfg.Synth.Plan.MaxResultSet = 0 },
		"-flaky":            func(o *options) { o.cfg.FlakyRate = 2 },
		"-timeout":          func(o *options) { o.cfg.Robust.Timeout = 0 },
		"-retries":          func(o *options) { o.cfg.Robust.Retries = 0 },
		"-gdb":              func(o *options) { o.cfg.GDBs = []string{"foo"} },
		"-resume":           func(o *options) { o.resume = true },
	} {
		o := valid
		set(&o)
		err := validate(o)
		if err == nil || !strings.Contains(err.Error(), flag+":") {
			t.Errorf("%s invalid: err = %v, want an error naming the flag", flag, err)
		}
	}
	// A refused zero names the negative value that disables the flag.
	for flag, set := range map[string]func(*options){
		"-timeout -1s": func(o *options) { o.cfg.Robust.Timeout = 0 },
		"-retries -1":  func(o *options) { o.cfg.Robust.Retries = 0 },
	} {
		o := valid
		set(&o)
		if err := validate(o); err == nil || !strings.Contains(err.Error(), flag+" to disable") {
			t.Errorf("%s: err = %v, want it to name the disabling value", flag, err)
		}
	}
	o := valid
	o.cfg.FlakyRate = -0.1
	if err := validate(o); err == nil {
		t.Error("-flaky -0.1 must be refused")
	}
}

// TestFlagErrorsOpenNoJournal: the command refuses an unknown -gdb and
// a -resume without -checkpoint with exit code 2 and opens no journal.
func TestFlagErrorsOpenNoJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.journal")
	for _, args := range [][]string{
		{"-gdb", "foo", "-checkpoint", path},
		{"-resume"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2\nstderr: %s", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q", args, stdout.String())
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused command line created its journal: %v", err)
	}
}

// TestFingerprintLabelsTargets pins the journal identity the command
// writes: existing journals resume only while this string is unchanged.
func TestFingerprintLabelsTargets(t *testing.T) {
	o := defaults(t)
	o.cfg.Seed, o.cfg.Iterations, o.cfg.Workers, o.cfg.Live, o.cfg.FlakyRate = 7, 40, 2, true, 0.1
	o.cfg.GDBs = []string{"neo4j", "kuzu"}
	fp := experiments.CampaignFingerprint(o.cfg)
	for _, want := range []string{
		" mode=sharded targets=neo4j,kuzu live flaky=0.1 catalog=",
		" workers=2 batch=5 iterations=40 seed=7 ",
	} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint lacks %q:\n%s", want, fp)
		}
	}
}

// runCmd runs the command in-process and returns its exit code, stdout
// and stderr.
func runCmd(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

var summarySeconds = regexp.MustCompile(`; [0-9]+\.[0-9]s$`)

// comparable drops the output lines that vary between runs of one
// command line — the per-GDB throughput lines, the summary lines'
// trailing seconds — and the lines starting with any of the given
// prefixes, bare or after a GDB name.
func comparable(out string, drop ...string) string {
	drop = append(drop, "throughput: ")
	var b strings.Builder
lines:
	for _, line := range strings.Split(out, "\n") {
		for _, p := range drop {
			if strings.HasPrefix(line, p) || strings.Contains(line, ": "+p) {
				continue lines
			}
		}
		b.WriteString(summarySeconds.ReplaceAllString(line, ""))
		b.WriteByte('\n')
	}
	return b.String()
}

// readGolden reads a file under testdata/golden, gunzipping .gz files.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(name, ".gz") {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	return string(data)
}

// sameDirs fails the test unless the two directories hold the same
// files with the same bytes.
func sameDirs(t *testing.T, want, got string) {
	t.Helper()
	read := func(dir string) map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	w, g := read(want), read(got)
	for name := range w {
		if _, ok := g[name]; !ok {
			t.Errorf("report %s missing", name)
		}
	}
	for name, data := range g {
		if wd, ok := w[name]; !ok {
			t.Errorf("unexpected report %s", name)
		} else if data != wd {
			t.Errorf("report %s differs:\n%s\nwant:\n%s", name, data, wd)
		}
	}
}

// TestGoldenOutput: the command's stdout and report files for a set of
// command lines match the files under testdata/golden, which hold what
// the command printed and wrote before it ran on the experiments
// campaign (the throughput lines and the summary lines' seconds aside).
// The -v golden was written at one worker; at two, only its header
// differs.
func TestGoldenOutput(t *testing.T) {
	reports := t.TempDir()
	for _, tc := range []struct {
		golden string
		header string // replaces the golden's first line when set
		args   []string
	}{
		{golden: "all-w1.txt", args: []string{"-gdb", "all", "-iterations", "30", "-workers", "1"}},
		{golden: "all-w2.txt", args: []string{"-gdb", "all", "-iterations", "30", "-workers", "2"}},
		{golden: "falkordb-v.txt.gz", args: []string{"-gdb", "falkordb", "-iterations", "30", "-v", "-workers", "1"}},
		{golden: "falkordb-v.txt.gz", args: []string{"-gdb", "falkordb", "-iterations", "30", "-v", "-workers", "2"},
			header: "=== testing falkordb (seed 1, 30 iterations, 2 workers, batch 3) ==="},
		{golden: "kuzu.txt", args: []string{"-gdb", "kuzu", "-iterations", "20", "-workers", "2"}},
		{golden: "reference.txt", args: []string{"-gdb", "reference", "-iterations", "10", "-workers", "2"}},
		{golden: "falkordb-live.txt", args: []string{"-gdb", "falkordb", "-iterations", "4", "-live", "-flaky", "0.1", "-timeout", "50ms", "-workers", "2"}},
		{golden: "memgraph-reports.txt", args: []string{"-gdb", "memgraph", "-iterations", "20", "-workers", "2", "-reports", reports}},
	} {
		code, stdout, stderr := runCmd(context.Background(), tc.args...)
		if code != 0 {
			t.Fatalf("%q: exit %d\n%s", tc.args, code, stderr)
		}
		want := readGolden(t, tc.golden)
		if tc.header != "" {
			_, rest, _ := strings.Cut(want, "\n")
			want = tc.header + "\n" + rest
		}
		if got, want := comparable(stdout), comparable(want); got != want {
			t.Errorf("%q: stdout differs from %s\n%s", tc.args, tc.golden, firstDiff(got, want))
		}
	}
	sameDirs(t, filepath.Join("testdata", "golden", "memgraph-reports"), reports)
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return ""
}

// cancelAfter is a goroutine-safe stdout that cancels the campaign once
// it has printed n detection lines. A detection merges only after its
// work unit is journaled (every unit flushes under -checkpoint-every 1),
// so the cancel lands at a checkpoint boundary.
type cancelAfter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if bytes.HasPrefix(p, []byte("[")) {
		if w.n--; w.n == 0 {
			w.cancel()
		}
	}
	return w.buf.Write(p)
}

// TestCLIKillResumeDifferential: a durable run canceled at a checkpoint
// boundary — with the journal tail torn on top — and resumed with
// -resume prints the lines of an uninterrupted run (its resuming,
// checkpoint and throughput lines aside) and leaves the same report
// files, at one worker and at two.
func TestCLIKillResumeDifferential(t *testing.T) {
	for _, leg := range []struct {
		workers   string
		killAfter int // cancel at this detection line
	}{
		{"1", 9},
		{"2", 14},
	} {
		t.Run("workers"+leg.workers, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-gdb", "all", "-iterations", "6", "-workers", leg.workers, "-batch", "1", "-flaky", "0.05"}
			wantReports, gotReports := filepath.Join(dir, "want"), filepath.Join(dir, "got")
			code, want, stderr := runCmd(context.Background(), append(args, "-reports", wantReports)...)
			if code != 0 {
				t.Fatalf("uninterrupted run: exit %d\n%s", code, stderr)
			}

			path := filepath.Join(dir, "run.journal")
			durable := append(args, "-reports", gotReports, "-checkpoint", path, "-checkpoint-every", "1")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &cancelAfter{n: leg.killAfter, cancel: cancel}
			var errb bytes.Buffer
			if code := run(ctx, durable, out, &errb); code != 0 {
				t.Fatalf("interrupted run: exit %d\n%s", code, errb.String())
			}
			if !strings.Contains(out.buf.String(), "interrupted: progress checkpointed") {
				t.Fatalf("the run was not interrupted:\n%s", out.buf.String())
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xba, 0xad}) //nolint:errcheck
			f.Close()

			code, got, stderr := runCmd(context.Background(), append(durable, "-resume")...)
			if code != 0 {
				t.Fatalf("resumed run: exit %d\n%s", code, stderr)
			}
			if !strings.HasPrefix(got, "resuming from ") {
				t.Fatalf("nothing was resumed:\n%s", got)
			}
			drop := []string{"resuming from ", "checkpoint: "}
			if g, w := comparable(got, drop...), comparable(want, drop...); g != w {
				t.Errorf("resumed output differs from an uninterrupted run's\n%s", firstDiff(g, w))
			}
			sameDirs(t, wantReports, gotReports)
		})
	}
}

// writeJournal writes a checkpoint journal holding the given units
// under the fingerprint of the command line args.
func writeJournal(t *testing.T, path string, args []string, units ...core.UnitRecord) {
	t.Helper()
	o, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path}, experiments.CampaignFingerprint(o.cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		ck.Record(u)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeReportsUndecodablePayloads: a restored unit whose payload
// does not decode is never merged silently as empty. The resumed run
// warns and exits 1 — for a CRC-valid journal whose payload is garbage,
// and for a journal the command wrote before its payload became the
// experiments campaign's (a list of prerendered detections per shard).
func TestResumeReportsUndecodablePayloads(t *testing.T) {
	small := []string{"-gdb", "falkordb", "-iterations", "1", "-workers", "1", "-batch", "1",
		"-max-nodes", "5", "-max-rels", "8", "-checkpoint-every", "1"}
	garbage := filepath.Join(t.TempDir(), "garbage.journal")
	writeJournal(t, garbage, small, core.UnitRecord{Target: "falkordb", Shard: 0, Count: 1,
		Queries: 16, Stats: core.Stats{Queries: 16}, Payload: []byte(`"garbage"`)})

	parent := filepath.Join(t.TempDir(), "parent.journal")
	data, err := os.ReadFile(filepath.Join("testdata", "parent-falkordb.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parent, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The same campaign, uninterrupted, reports detections.
	_, fresh, _ := runCmd(context.Background(), small...)
	if !strings.Contains(fresh, "[logic-bug] FK-") {
		t.Fatalf("the campaign finds nothing, so the check is vacuous:\n%s", fresh)
	}
	for name, path := range map[string]string{"garbage": garbage, "parent": parent} {
		code, stdout, stderr := runCmd(context.Background(), append(small, "-checkpoint", path, "-resume")...)
		if code != 1 || !strings.Contains(stderr, "1 restored work units have journal payloads that do not decode") {
			t.Errorf("%s journal: exit %d, stderr %q; want exit 1 and a warning", name, code, stderr)
		}
		if !strings.HasPrefix(stdout, "resuming from ") || strings.Contains(stdout, "[") {
			t.Errorf("%s journal: want the unit restored without detections:\n%s", name, stdout)
		}
	}
}

// TestResumeFullStateJournal: a journal whose records each hold every
// unit completed so far — as the command wrote them before a record
// held only the units completed since the previous flush — resumes with
// all its units restored, into the lines of an uninterrupted run; the
// journal it leaves, full-state records followed by the resumed run's,
// restores every unit. testdata/fullstate-falkordb.journal is such a
// journal, cut by cancellation after three flushes of
// `gqs -gdb falkordb -iterations 12 -workers 1 -batch 1 -max-nodes 5
// -max-rels 8 -checkpoint-every 1`.
func TestResumeFullStateJournal(t *testing.T) {
	args := []string{"-gdb", "falkordb", "-iterations", "12", "-workers", "1", "-batch", "1",
		"-max-nodes", "5", "-max-rels", "8", "-checkpoint-every", "1"}
	code, want, stderr := runCmd(context.Background(), args...)
	if code != 0 {
		t.Fatalf("uninterrupted run: exit %d\n%s", code, stderr)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "fullstate-falkordb.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	drop := []string{"resuming from ", "checkpoint: "}
	for _, restored := range []int{3, 12} {
		code, got, stderr := runCmd(context.Background(), append(args, "-checkpoint", path, "-resume")...)
		if code != 0 {
			t.Fatalf("resume restoring %d units: exit %d\n%s", restored, code, stderr)
		}
		if line := fmt.Sprintf("resuming from %s: %d completed units restored\n", path, restored); !strings.HasPrefix(got, line) {
			t.Fatalf("want %q first:\n%s", line, got)
		}
		if g, w := comparable(got, drop...), comparable(want, drop...); g != w {
			t.Errorf("resume restoring %d units differs from an uninterrupted run\n%s", restored, firstDiff(g, w))
		}
	}
}
