package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"dsks"
)

// These tests run dsks-serve as a process: the test binary starts itself
// again with childEnv set, and TestMain runs main() in that child instead
// of the tests. The parent reads the address from the banner, so no test
// polls for health.
const childEnv = "DSKS_SERVE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// banner matches the line dsks-serve prints once its listener is bound.
var banner = regexp.MustCompile(`^dsks-serve: serving .* on (\S+) \(index `)

// child is one dsks-serve process on a small generated dataset.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stdout []string
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has exited
	err    error         // its exit status, valid once exited is closed
}

// command is dsks-serve with args, run as a child of the test binary.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-preset", "SYN", "-scale", "2000"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// boot starts dsks-serve and returns once its banner names the address.
// onBanner, when set, runs the moment the banner line is read.
func boot(t *testing.T, onBanner func(*os.Process), args ...string) *child {
	t.Helper()
	c := &child{cmd: command(args...), exited: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.cmd.Process.Kill()
		<-c.exited
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.stdout = append(c.stdout, sc.Text())
			if m := banner.FindStringSubmatch(sc.Text()); m != nil {
				if onBanner != nil {
					onBanner(c.cmd.Process)
				}
				addr <- m[1]
			}
		}
		c.err = c.cmd.Wait()
		close(addr)
		close(c.exited)
	}()
	if c.addr = <-addr; c.addr == "" {
		<-c.exited
		t.Fatalf("dsks-serve exited before serving: %v\n%s", c.err, c.output())
	}
	return c
}

// wait waits for the process to exit and returns its exit status.
func (c *child) wait() error {
	<-c.exited
	return c.err
}

// output is everything the process printed; complete once it exited.
func (c *child) output() string {
	return strings.Join(c.stdout, "\n") + "\n" + c.stderr.String()
}

// varz reads the server's /varz fields these tests check.
func varz(t *testing.T, addr string) (v struct {
	LiveObjects int    `json:"liveObjects"`
	DurableLSN  uint64 `json:"durableLSN"`
	Metrics     struct {
		Counters map[string]int64 `json:"Counters"`
	} `json:"metrics"`
}) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSIGTERMDrains: after serving a query, SIGTERM drains the server,
// closes the database and exits 0.
func TestSIGTERMDrains(t *testing.T) {
	c := boot(t, nil)
	resp, err := http.Get("http://" + c.addr + "/v1/search?edge=3&offset=0.4&terms=1&deltaMax=4000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, c.output())
	}
	if !strings.Contains(c.output(), "drained cleanly") {
		t.Fatalf("no clean drain reported:\n%s", c.output())
	}
}

// TestSIGTERMAtTheBanner: a SIGTERM sent the moment the banner appears
// still drains and exits 0. The handler must be installed before the
// banner is printed; a signal that beats it kills the process instead.
// A handler installed just after the banner loses that race on only
// some boots, so the test boots several times.
func TestSIGTERMAtTheBanner(t *testing.T) {
	for i := 0; i < 5; i++ {
		c := boot(t, func(p *os.Process) { _ = p.Signal(syscall.SIGTERM) })
		if err := c.wait(); err != nil {
			t.Fatalf("boot %d: exit after a SIGTERM at the banner: %v\n%s", i, err, c.output())
		}
	}
}

// TestKill9KeepsEveryAckedInsert: an insert storm over HTTP, SIGKILL
// once enough inserts are acknowledged, and a reboot on the same log.
// Every acknowledged insert survives, at most one unacknowledged insert
// per worker is added, and the log replays exactly the growth: the
// replayed-record count and the durable LSN both equal it.
func TestKill9KeepsEveryAckedInsert(t *testing.T) {
	wal := t.TempDir()
	c := boot(t, nil, "-wal", wal)
	base := varz(t, c.addr).LiveObjects

	const workers, target = 4, 120
	var (
		acked atomic.Int64
		kill  sync.Once
		wg    sync.WaitGroup
	)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(edge int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"edge":%d,"offset":0.5,"terms":[1,2]}`, edge)
			for {
				resp, err := client.Post("http://"+c.addr+"/v1/insert", "application/json", strings.NewReader(body))
				if err != nil {
					return
				}
				var ack struct {
					ID *int64 `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || ack.ID == nil {
					return
				}
				if acked.Add(1) >= target {
					kill.Do(func() { _ = c.cmd.Process.Kill() })
				}
			}
		}(w)
	}
	wg.Wait()
	kill.Do(func() { _ = c.cmd.Process.Kill() }) // the storm stopped short
	c.wait()
	n := int(acked.Load())
	if n < target {
		t.Fatalf("the storm stopped after %d acks, want %d\n%s", n, target, c.output())
	}

	r := boot(t, nil, "-wal", wal)
	v := varz(t, r.addr)
	grew := v.LiveObjects - base
	if grew < n || grew > n+workers {
		t.Fatalf("%d inserts acked before the kill, %d survived (want %d..%d)", n, grew, n, n+workers)
	}
	if replayed := v.Metrics.Counters["wal_replayed_records_total"]; replayed != int64(grew) || v.DurableLSN != uint64(grew) {
		t.Fatalf("replayed %d records, durable LSN %d; want both %d", replayed, v.DurableLSN, grew)
	}
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := r.wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, r.output())
	}
}

// TestSnapshotKeepsItsConfiguration: -db serves a snapshot as it was
// saved — an IF index and an oracle seeded 7, loaded from the snapshot's
// file rather than rebuilt — although the -index and -seed defaults
// (SIF, 1) say otherwise; only the flags the command line sets override
// it. The banner names the kind that was opened.
func TestSnapshotKeepsItsConfiguration(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexIF, Oracle: true, OracleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()

	for _, tc := range []struct {
		args   []string
		kind   dsks.IndexKind
		seed   uint64
		loaded bool // the saved oracle file served, no rebuild
	}{
		{args: nil, kind: dsks.IndexIF, seed: 7, loaded: true},
		{args: []string{"-index", "SIF", "-seed", "3"}, kind: dsks.IndexSIF, seed: 3},
	} {
		fs := flag.NewFlagSet("dsks-serve", flag.ContinueOnError)
		c := newCLI(fs)
		if err := fs.Parse(append([]string{"-db", dir}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		db, err := dsks.OpenPath(dir, c.dbOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := db.Options()
		if got.Index != tc.kind || got.OracleSeed != tc.seed || db.DistanceOracle() == nil {
			t.Errorf("-db %v opened index %s, oracle seed %d (oracle %v); want %s and %d",
				tc.args, got.Index, got.OracleSeed, db.DistanceOracle() != nil, tc.kind, tc.seed)
		}
		if loaded := db.SetupTimes().Oracle == 0; loaded != tc.loaded {
			t.Errorf("-db %v: oracle loaded from the snapshot = %v, want %v", tc.args, loaded, tc.loaded)
		}
		db.Close()
	}

	c := boot(t, func(p *os.Process) { _ = p.Signal(syscall.SIGTERM) }, "-db", dir)
	if err := c.wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, c.output())
	}
	if !strings.Contains(c.output(), " (index IF,") {
		t.Errorf("the banner does not name the snapshot's kind IF:\n%s", c.output())
	}
}

// TestReplicasNeedTheWAL: -replicas without -wal is refused at start-up,
// and the error names the write-ahead log.
func TestReplicasNeedTheWAL(t *testing.T) {
	out, err := command("-shards", "2", "-replicas", "1").CombinedOutput()
	if err == nil {
		t.Fatalf("-shards 2 -replicas 1 started without -wal:\n%s", out)
	}
	if !strings.Contains(string(out), "WALDir") {
		t.Fatalf("the error does not name the write-ahead log:\n%s", out)
	}
}

// TestFlagSet pins dsks-serve's flags as -h lists them, so a knob added
// or removed shows up in review. It includes every flag the benchmark
// passes (-preset -scale -seed -index -cache-size -max-inflight
// -queue-depth -oracle -iolat -shards -addr -wal).
func TestFlagSet(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dsks-serve -h: %v\n%s", err, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		if !strings.HasPrefix(m[1], "test.") { // the test binary's own flags
			got = append(got, m[1])
		}
	}
	want := []string{
		"addr", "break-after", "breaker-cooldown", "buffer", "cache-size",
		"checksums", "db", "default-timeout", "degrade-after", "drain-timeout",
		"hedge-after", "index", "iolat", "landmarks", "leg-retries",
		"max-inflight", "max-staleness", "max-timeout", "oracle",
		"partial-results", "preset", "queue-depth", "replicas", "scale",
		"seed", "shards", "wal",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dsks-serve -h lists %d flags:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, " "), len(want), strings.Join(want, " "))
	}
}
