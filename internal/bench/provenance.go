// Provenance-overhead benchmark: the serve workload under a continuous
// says+sync writer (the trust system's natural churn — every delivery
// lands in the receiver's import relation, derives says facts, and
// activates said rules), measured three ways per round: provenance off
// twice (the paired off arms bound the harness noise floor — the
// disabled path is one nil branch per derivation and must vanish into
// it) and provenance on (full derivation capture). The acceptance bar
// is <10% median throughput overhead for the enabled path.
package bench

import (
	"fmt"
	"time"

	"lbtrust/internal/server"
)

// ProvenanceOptions configures RunProvenance.
type ProvenanceOptions struct {
	// Base is the number of loaded facts in the served workspace.
	Base int
	// PerClient is the reader-session concurrency budget per round (the
	// round is duration-bound; PerClient sizes latency buffers).
	PerClient int
	// Clients is the session concurrency of each round.
	Clients int
	// Rounds is how many times each arm is measured (alternating, so
	// machine drift hits all arms equally); the median is reported.
	Rounds int
	// Window is how long each arm's readers run (defaulted for CI).
	Window time.Duration
}

// ProvenanceArm is one measured configuration.
type ProvenanceArm struct {
	Mode      string    // "off-a", "off-b", or "on"
	QPS       []float64 // per round
	MedianQPS float64
	P50       time.Duration // from the median-QPS round
	P99       time.Duration
}

// ProvenanceResult is the full provenance experiment output.
type ProvenanceResult struct {
	Base      int
	PerClient int
	Clients   int
	Rounds    int
	OffA      ProvenanceArm
	OffB      ProvenanceArm
	On        ProvenanceArm
	// NoisePct is the median paired delta between the two off arms,
	// (offA_i - offB_i) / offA_i * 100 — the harness noise floor. The
	// disabled path differs between the arms by nothing at all (both run
	// the one nil-store branch per site), so this is the yardstick
	// OverheadPct is judged against.
	NoisePct float64
	// OverheadPct is the median paired throughput loss of enabling
	// capture, (offA_i - on_i) / offA_i * 100.
	OverheadPct float64
	// Recorded facts / bytes / cap-dropped derivations in the enabled
	// arm's final round — proof the arm actually captured.
	RecordedFacts int
	RecordedBytes int64
	Dropped       int64
}

// runProvArm measures one round of one arm: readers querying the loaded
// workspace while a writer continuously says fact batches to bob and
// pumps the distribution runtime, so every round carries deliveries,
// says derivations, and rule activations — the paths capture hooks
// into. Returns the measured point plus the receiver workspace's
// provenance stats (zeros when capture is off).
func runProvArm(opts ProvenanceOptions, enabled bool) (ServePoint, int, int64, int64, error) {
	sys, srv, err := serveSystem(opts.Base, server.Options{Provenance: enabled})
	if err != nil {
		return ServePoint{}, 0, 0, 0, err
	}
	defer func() {
		srv.Close()
		sys.Close()
	}()
	bob, _ := sys.Principal("bob")
	if err := bob.TrustAll(); err != nil {
		return ServePoint{}, 0, 0, 0, err
	}
	alice, _ := sys.Principal("alice")
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		seq := 0
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			batch := make([]string, 16)
			for i := range batch {
				seq++
				batch[i] = fmt.Sprintf("note(%d).", seq)
			}
			if err := alice.SayAll("bob", batch); err != nil {
				return
			}
			if err := sys.Sync(); err != nil {
				return
			}
		}
	}()
	pt, err := runServePoint(sys, srv, opts.Clients, opts.PerClient, opts.Base, opts.Window)
	close(stop)
	<-writerDone
	if err != nil {
		return ServePoint{}, 0, 0, 0, err
	}
	facts, used, _, dropped := bob.Workspace().Provenance().Stats()
	return pt, facts, used, dropped, nil
}

// RunProvenance measures provenance-capture overhead on the sync-heavy
// serve workload. Rounds alternate off-a, off-b, on back to back so
// thermal or scheduler drift cannot be mistaken for capture cost.
func RunProvenance(opts ProvenanceOptions) (*ProvenanceResult, error) {
	if opts.Base <= 0 {
		opts.Base = 10000
	}
	if opts.PerClient <= 0 {
		opts.PerClient = 400
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 5
	}
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	res := &ProvenanceResult{
		Base: opts.Base, PerClient: opts.PerClient,
		Clients: opts.Clients, Rounds: opts.Rounds,
		OffA: ProvenanceArm{Mode: "off-a"},
		OffB: ProvenanceArm{Mode: "off-b"},
		On:   ProvenanceArm{Mode: "on"},
	}
	type round struct {
		arm     *ProvenanceArm
		enabled bool
	}
	for i := 0; i < opts.Rounds; i++ {
		for _, r := range []round{{&res.OffA, false}, {&res.OffB, false}, {&res.On, true}} {
			pt, facts, used, dropped, err := runProvArm(opts, r.enabled)
			if err != nil {
				return nil, fmt.Errorf("bench: provenance arm %s round %d: %w", r.arm.Mode, i, err)
			}
			r.arm.QPS = append(r.arm.QPS, pt.QPS)
			if r.arm.MedianQPS == 0 || nearerMedian(r.arm.QPS, pt.QPS, r.arm.MedianQPS) {
				r.arm.P50, r.arm.P99 = pt.P50, pt.P99
			}
			r.arm.MedianQPS = median(r.arm.QPS)
			if r.enabled {
				// The enabled arm must actually have captured: a wiring
				// regression that silently dropped the store would report a
				// flattering 0% overhead forever.
				if facts == 0 {
					return nil, fmt.Errorf("bench: enabled arm recorded no derivations")
				}
				res.RecordedFacts, res.RecordedBytes, res.Dropped = facts, used, dropped
			}
		}
	}
	var noise, overhead []float64
	for i := range res.OffA.QPS {
		if res.OffA.QPS[i] > 0 {
			noise = append(noise, (res.OffA.QPS[i]-res.OffB.QPS[i])/res.OffA.QPS[i]*100)
			overhead = append(overhead, (res.OffA.QPS[i]-res.On.QPS[i])/res.OffA.QPS[i]*100)
		}
	}
	res.NoisePct = median(noise)
	res.OverheadPct = median(overhead)
	return res, nil
}
