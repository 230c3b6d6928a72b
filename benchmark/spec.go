package main

import "time"

// workload is one traffic mix. Every constant that shapes a run lives here
// (BENCHMARK.json's schema has no room for them); README.md explains why each
// was chosen.
type workload struct {
	name string
	// json selects POST /v1/updates (batch machinery); otherwise the writer
	// speaks CGBIN/2 (per-update fast path).
	json bool
	// q pairwise queries spread over `sources` distinct source vertices.
	q, sources int
	// frame is updates per CGBIN frame or JSON body; window is the closed
	// loop's bound on unacked frames (bodies posted but unapplied for JSON).
	frame, window int
	// rate > 0 makes the writer open loop at that many updates/s.
	rate float64
	// hotFrac of the updates toggle an edge into a query destination, which is
	// what moves answers. A workload that is about watch delivery must see at
	// least minDeltas deltas per second of window, or the run is invalid.
	hotFrac, minDeltas float64
	// A checkpoint is written every ckptEvery stream positions (updates on
	// the binary path, batches on the JSON path); the writer stops `residue`
	// positions past one, which is what the restore then replays.
	ckptEvery, residue uint64
	// follower adds one promotable follower and -sync-followers 1.
	follower bool
	// propagate passes -propagate-workers <the daemons' CPUs>.
	propagate bool
}

// pacedRate is paced-watch's frozen open-loop rate in updates/s, 28 % of the
// closed-loop capacity of the reference box's one-CPU daemon at the same query
// set; README.md, "The frozen paced-watch rate", says how it was derived and
// how to derive it again.
const pacedRate = 4000

var workloads = []workload{
	{
		name: "ingest-durable",
		q:    4, sources: 4, frame: 64, window: 64, hotFrac: 0.005,
		ckptEvery: 131072, residue: 65536,
	},
	{
		name: "engine-batch",
		json: true, q: 64, sources: 64, frame: 512, window: 4,
		ckptEvery: 64, residue: 32, propagate: true,
	},
	{
		name: "paced-watch",
		q:    128, sources: 16, frame: 16, window: 1 << 16, rate: pacedRate, hotFrac: 0.2, minDeltas: 50,
		ckptEvery: 8192, residue: 4096,
	},
	{
		name: "replicated-restart",
		q:    4, sources: 4, frame: 64, window: 4, hotFrac: 0.05,
		ckptEvery: 32768, residue: 24576, follower: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// readEvery is the paced reader's period: 100 reads a second.
const readEvery = 10 * time.Millisecond

// sizing separates the measured configuration from the smoke test's.
type sizing struct {
	scale     int           // log2 vertices of the RMAT dataset (16 arcs per vertex)
	warmup    time.Duration // untimed load before the window opens
	setups    int           // set-up repetitions; the median is reported
	restores  int           // SIGKILL → -resume repetitions; the median is reported
	ckptShift uint          // checkpoint cadence and residue are divided by 2^ckptShift
	stageUpd  int           // updates fed through the stage replay
}

var (
	fullSize  = sizing{scale: 12, warmup: 2 * time.Second, setups: 5, restores: 5, stageUpd: 1 << 16}
	smokeSize = sizing{scale: 10, warmup: 200 * time.Millisecond, setups: 1, restores: 1, ckptShift: 4, stageUpd: 1 << 12}
)
