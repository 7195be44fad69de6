package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"lbtrust/internal/dist"
	"lbtrust/internal/store"
)

// TestRecoverTruncatedSystemWAL simulates kill -9 at arbitrary points of
// the log: recovery must come up clean on every prefix, answer queries
// from the surviving records, and keep working afterwards.
func TestRecoverTruncatedSystemWAL(t *testing.T) {
	dir := t.TempDir()
	sys := buildDurableSystem(t, dir, store.FsyncOff)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	walFiles, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(walFiles) != 1 {
		t.Fatalf("wal files: %v (%v)", walFiles, err)
	}
	full, err := os.ReadFile(walFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.97} {
		cut := int(float64(len(full)) * frac)
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(walFiles[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSystem(sub, DurableOptions{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatalf("cut at %.0f%%: open: %v", frac*100, err)
		}
		// Whatever survived must be a working system: Sync converges and
		// recovered principals answer queries.
		if err := re.Sync(); err != nil {
			t.Errorf("cut at %.0f%%: sync: %v", frac*100, err)
		}
		if bob, ok := re.Principal("bob"); ok {
			if _, err := bob.Query("greeting(X)"); err != nil {
				t.Errorf("cut at %.0f%%: query: %v", frac*100, err)
			}
		}
		if err := re.Close(); err != nil {
			t.Errorf("cut at %.0f%%: close: %v", frac*100, err)
		}
	}
}

// flakyTransport wraps a transport and fails every Send after a fuse
// burns, interrupting a Sync partway through a round.
type flakyTransport struct {
	inner dist.Transport
	fuse  atomic.Int64 // sends allowed before failure
}

func (f *flakyTransport) Endpoint(name string) (dist.Endpoint, error) {
	ep, err := f.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &flakyEndpoint{Endpoint: ep, tr: f}, nil
}

func (f *flakyTransport) Close() error { return f.inner.Close() }

type flakyEndpoint struct {
	dist.Endpoint
	tr *flakyTransport
}

func (ep *flakyEndpoint) Send(to string, env *dist.Envelope) error {
	if ep.tr.fuse.Add(-1) < 0 {
		return fmt.Errorf("flaky transport: fuse burned")
	}
	return ep.Endpoint.Send(to, env)
}

// TestSnapshotMidSync interrupts a Sync with a transport failure, takes a
// checkpoint of the half-delivered state, crashes, recovers, and finishes
// the protocol: the result must match a run that was never interrupted.
func TestSnapshotMidSync(t *testing.T) {
	build := func(dir string, tr dist.Transport) (*System, *Principal, *Principal) {
		t.Helper()
		var sys *System
		var err error
		if dir != "" {
			sys, err = OpenSystem(dir, DurableOptions{Transport: tr, Fsync: store.FsyncOff})
		} else {
			sys, err = NewSystemWith(tr)
		}
		if err != nil {
			t.Fatal(err)
		}
		alice, err := sys.AddPrincipal("alice")
		if err != nil {
			t.Fatal(err)
		}
		bob, err := sys.AddPrincipal("bob")
		if err != nil {
			t.Fatal(err)
		}
		if err := bob.TrustAll(); err != nil {
			t.Fatal(err)
		}
		return sys, alice, bob
	}
	say := func(p *Principal, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := p.Say("bob", fmt.Sprintf("m(v%d).", i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: never interrupted.
	refSys, refAlice, refBob := build("", dist.NewMemNetwork())
	say(refAlice, 6)
	if err := refSys.Sync(); err != nil {
		t.Fatal(err)
	}
	want := queryStrings(t, refBob, "m(X)")
	refSys.Close()

	// Interrupted run: per-message Say transactions produce per-batch
	// envelopes; the fuse burns after the first send of the Sync.
	dir := t.TempDir()
	flaky := &flakyTransport{inner: dist.NewMemNetwork()}
	flaky.fuse.Store(1 << 30)
	sys, alice, bob := build(dir, flaky)
	say(alice, 3)
	if err := sys.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	say(alice, 6) // three of these are new
	flaky.fuse.Store(0)
	if err := sys.Sync(); err == nil {
		t.Fatal("sync with burned fuse did not fail")
	}
	// Snapshot the half-synced state, then crash.
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("mid-sync checkpoint: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_ = bob

	re, err := OpenSystem(dir, DurableOptions{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if err := re.Sync(); err != nil {
		t.Fatalf("post-recovery sync: %v", err)
	}
	bob2, _ := re.Principal("bob")
	if got := queryStrings(t, bob2, "m(X)"); !equalStrings(got, want) {
		t.Errorf("recovered+resynced m = %v, want %v", got, want)
	}
}

// TestCheckpointConcurrentWithMutations guards against lock-order
// deadlock: Checkpoint captures system and workspace state while other
// goroutines create principals, establish keys, and commit flushes (all
// of which append to the log).
func TestCheckpointConcurrentWithMutations(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenSystem(dir, DurableOptions{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice, err := sys.AddPrincipal("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.AddPrincipal("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.TrustAll(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := sys.AddPrincipal(fmt.Sprintf("p%d", i)); err != nil {
				done <- err
				return
			}
			if err := alice.Say("bob", fmt.Sprintf("tick(t%d).", i)); err != nil {
				done <- err
				return
			}
			if err := sys.Sync(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 10; i++ {
			if err := sys.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("deadlock: checkpoint and mutations did not finish")
		}
	}
	// Whatever interleaving happened, the directory must recover cleanly.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSystem(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after concurrent checkpoints: %v", err)
	}
	defer re.Close()
	bob2, _ := re.Principal("bob")
	if bob2 == nil || bob2.Count("tick") != 10 {
		n := -1
		if bob2 != nil {
			n = bob2.Count("tick")
		}
		t.Errorf("recovered ticks = %d, want 10", n)
	}
}

// TestRecoverNegativeComparisonRule reopens a data directory holding a
// rule that compares against a negative constant. The rule's canonical
// text must re-parse, or the logged rule (and a checkpoint carrying it)
// would make the directory unreadable.
func TestRecoverNegativeComparisonRule(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			sys, err := OpenSystem(dir, DurableOptions{Fsync: store.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			alice, err := sys.AddPrincipal("alice")
			if err != nil {
				t.Fatal(err)
			}
			if err := alice.LoadProgram("q(-5). q(3). p(X) <- q(X), X < -1."); err != nil {
				t.Fatal(err)
			}
			if checkpoint {
				if err := sys.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenSystem(dir, DurableOptions{Fsync: store.FsyncOff})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			alice, ok := re.Principal("alice")
			if !ok {
				t.Fatal("alice not recovered")
			}
			rows, err := alice.Query("p(X)")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rows) != "[(-5)]" {
				t.Fatalf("recovered p = %v, want [(-5)]", rows)
			}
		})
	}
}
