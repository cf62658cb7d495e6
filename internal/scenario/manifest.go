package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// A Manifest is the on-disk declarative form of one experiment: the
// scenario to run, its typed parameters, the seeds/shards/trace settings,
// and (optionally) sweep axes — everything `mpexp run`/`sweep` would
// otherwise take as flags, as one reviewable, committable JSON file.
//
// Manifests load through the exact same typed-Params validation as `-set`
// flags: unknown scenarios, unknown parameter keys, and unparseable
// values die in Validate with the same errors `scenario.Build` raises on
// the command line, so a manifest cannot drift from what the registry
// accepts. Parameter values may be written as JSON strings, numbers, or
// booleans; numbers keep their literal spelling (0.30 stays "0.30"), so
// a manifest-driven run is byte-identical to the equivalent flag-driven
// one.
type Manifest struct {
	// Name labels the run (workspace run directories derive their ids
	// from it). Empty: LoadManifest fills it from the file's base name,
	// otherwise it defaults to the scenario name.
	Name string `json:"name,omitempty"`
	// Scenario is the registered scenario to run (required).
	Scenario string `json:"scenario"`
	// Params are the scenario's key=value knobs — exactly what `-set`
	// carries. The reserved keys "trace", "trace_cap", "shards", and
	// "metrics" must use the dedicated manifest fields instead.
	Params map[string]string `json:"params,omitempty"`

	// Seed is the base simulation seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Seeds is the number of independent seeds (0 = 1).
	Seeds int `json:"seeds,omitempty"`
	// Shards is the worker-loop count per simulation (0 = 1; results are
	// bit-identical at any count).
	Shards int `json:"shards,omitempty"`

	// Trace records an event trace. In a workspace run the trace file
	// lands in the run (or sweep-cell) directory; outside one, TraceFile
	// names it. Tracing is single-seed and single-shard.
	Trace bool `json:"trace,omitempty"`
	// TraceFile overrides where the trace is written (empty = decided by
	// the runner: the workspace cell directory, or in-memory analysis
	// only). Setting it implies Trace.
	TraceFile string `json:"trace_file,omitempty"`
	// TraceCap bounds each trace ring shard (0 = default).
	TraceCap int `json:"trace_cap,omitempty"`

	// Metrics records runtime metrics. In a workspace run the metrics.json
	// lands in the run (or sweep-cell) directory; outside one, MetricsFile
	// names it. Metrics are per-run and single-seed (the object pools are
	// process-wide, so concurrent seeds would bleed into each other's
	// counters), but work at any shard count.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsFile overrides where metrics.json is written (empty = decided
	// by the runner: the workspace cell directory, or report-only). Setting
	// it implies Metrics.
	MetricsFile string `json:"metrics_file,omitempty"`

	// Sweep, when present, crosses the scenario over schedulers ×
	// controllers × parameter axes; each cell runs Seeds seeds.
	Sweep *ManifestSweep `json:"sweep,omitempty"`
}

// ManifestSweep declares the sweep axes of a manifest.
type ManifestSweep struct {
	Schedulers  []string       `json:"schedulers,omitempty"`
	Controllers []string       `json:"controllers,omitempty"`
	Vary        []ManifestAxis `json:"vary,omitempty"`
}

// ManifestAxis is one parameter sweep dimension. Axes are an ordered
// list (not a JSON object) so the cell enumeration order — and with it
// cell ids and trace suffixes — is explicit in the file.
type ManifestAxis struct {
	Key    string   `json:"key"`
	Values []string `json:"values"`
}

// reservedParamKeys are manifest fields that must not be smuggled in as
// scenario parameters: the dedicated fields exist so the workspace can
// resolve them (trace file placement, shard plumbing) uniformly.
var reservedParamKeys = []string{"trace", "trace_cap", "shards", "metrics"}

// manifestJSON mirrors Manifest for decoding: params and axis values
// accept JSON strings, numbers, and booleans, normalised to the string
// forms Params parses. Unknown top-level fields are rejected so a typo
// ("shard" for "shards") cannot silently change what runs.
type manifestJSON struct {
	Name        string               `json:"name"`
	Scenario    string               `json:"scenario"`
	Params      map[string]flexValue `json:"params"`
	Seed        int64                `json:"seed"`
	Seeds       int                  `json:"seeds"`
	Shards      int                  `json:"shards"`
	Trace       bool                 `json:"trace"`
	TraceFile   string               `json:"trace_file"`
	TraceCap    int                  `json:"trace_cap"`
	Metrics     bool                 `json:"metrics"`
	MetricsFile string               `json:"metrics_file"`
	Sweep       *manifestSweepJSON   `json:"sweep"`
}

type manifestSweepJSON struct {
	Schedulers []string           `json:"schedulers"`
	Ctls       []string           `json:"controllers"`
	Vary       []manifestAxisJSON `json:"vary"`
}

type manifestAxisJSON struct {
	Key    string      `json:"key"`
	Values []flexValue `json:"values"`
}

// flexValue is a scalar parameter value: JSON string, number, or bool.
// Numbers keep their literal text (json.Number), so "loss": 0.30 reaches
// the typed Params as the string "0.30" — the same bytes `-set loss=0.30`
// would carry.
type flexValue struct {
	s string
}

func (v *flexValue) UnmarshalJSON(buf []byte) error {
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	switch x := raw.(type) {
	case string:
		v.s = x
	case json.Number:
		v.s = x.String()
	case bool:
		v.s = fmt.Sprintf("%v", x)
	default:
		return fmt.Errorf("parameter value %s: want a JSON string, number, or boolean", buf)
	}
	return nil
}

// ParseManifest decodes manifest JSON. Decoding is strict — unknown
// fields anywhere in the document are errors — but semantic validation
// (registered scenario, parameter keys/values) happens in Validate, so
// callers can distinguish "not a manifest" from "a manifest that asks
// for something invalid".
func ParseManifest(buf []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	mj := &manifestJSON{}
	if err := dec.Decode(mj); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	// A trailing second document is a malformed file, not extra config.
	if dec.More() {
		return nil, fmt.Errorf("manifest: trailing data after the JSON document")
	}
	m := &Manifest{
		Name:        mj.Name,
		Scenario:    mj.Scenario,
		Seed:        mj.Seed,
		Seeds:       mj.Seeds,
		Shards:      mj.Shards,
		Trace:       mj.Trace || mj.TraceFile != "",
		TraceFile:   mj.TraceFile,
		TraceCap:    mj.TraceCap,
		Metrics:     mj.Metrics || mj.MetricsFile != "",
		MetricsFile: mj.MetricsFile,
	}
	if len(mj.Params) > 0 {
		m.Params = make(map[string]string, len(mj.Params))
		for k, v := range mj.Params {
			m.Params[k] = v.s
		}
	}
	if mj.Sweep != nil {
		ms := &ManifestSweep{
			Schedulers:  mj.Sweep.Schedulers,
			Controllers: mj.Sweep.Ctls,
		}
		for _, ax := range mj.Sweep.Vary {
			vals := make([]string, len(ax.Values))
			for i, v := range ax.Values {
				vals[i] = v.s
			}
			ms.Vary = append(ms.Vary, ManifestAxis{Key: ax.Key, Values: vals})
		}
		m.Sweep = ms
	}
	return m, nil
}

// LoadManifest reads and parses a manifest file. A missing Name defaults
// to the file's base name without its extension ("fig2a-smoke.json" →
// "fig2a-smoke").
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	m, err := ParseManifest(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Name == "" {
		base := filepath.Base(path)
		m.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return m, nil
}

// RunName returns the label workspace run directories derive their ids
// from: Name, falling back to the scenario.
func (m *Manifest) RunName() string {
	if m.Name != "" {
		return m.Name
	}
	return m.Scenario
}

// BuildParams converts the manifest into the Params a single run hands
// to Build: the params map plus the shards field. Trace keys are NOT
// set here — the runner decides the trace file placement (workspace
// cell directory vs TraceFile) and arms it via TraceParams.
func (m *Manifest) BuildParams() *Params {
	p := NewParams(m.Params)
	if m.Shards != 0 {
		p.Set("shards", fmt.Sprintf("%d", m.Shards))
	}
	return p
}

// TraceParams arms tracing on p per the manifest, writing the binary
// trace to file ("" = record and analyse in memory only).
func (m *Manifest) TraceParams(p *Params, file string) {
	if !m.Trace {
		return
	}
	p.Set("trace", file)
	if m.TraceCap != 0 {
		p.Set("trace_cap", fmt.Sprintf("%d", m.TraceCap))
	}
}

// MetricsParams arms metrics recording on p per the manifest, writing
// metrics.json to file ("" = fold into the report only).
func (m *Manifest) MetricsParams(p *Params, file string) {
	if !m.Metrics {
		return
	}
	p.Set("metrics", file)
}

// SweepConfig converts a sweep manifest into the SweepConfig Sweep
// executes. Parallel bounds concurrent seeds per cell (0 = GOMAXPROCS).
// The caller owns TraceFile/OnCell wiring.
func (m *Manifest) SweepConfig(parallel int) SweepConfig {
	cfg := SweepConfig{
		Scenario: m.Scenario,
		Base:     m.BuildParams(),
		Seeds:    m.EffectiveSeeds(),
		BaseSeed: m.BaseSeed(),
		Parallel: parallel,
	}
	if m.Sweep != nil {
		cfg.Schedulers = m.Sweep.Schedulers
		cfg.Controllers = m.Sweep.Controllers
		for _, ax := range m.Sweep.Vary {
			cfg.Axes = append(cfg.Axes, Axis{Key: ax.Key, Values: ax.Values})
		}
	}
	return cfg
}

// BaseSeed returns the effective base seed (manifest zero = seed 1, the
// same default as the CLI's -seed flag).
func (m *Manifest) BaseSeed() int64 {
	if m.Seed == 0 {
		return 1
	}
	return m.Seed
}

// EffectiveSeeds returns the effective seed count (minimum 1).
func (m *Manifest) EffectiveSeeds() int {
	if m.Seeds <= 0 {
		return 1
	}
	return m.Seeds
}

// Validate checks the manifest against the live registry by building
// every run it would start — the single-run spec, or every sweep cell —
// through the same Build path `-set` flags take. It returns the first
// error: unknown scenario, unknown parameter key, bad value, shard/trace
// conflicts, malformed axes.
func (m *Manifest) Validate() error {
	if m.Scenario == "" {
		return fmt.Errorf("manifest %s: missing required field \"scenario\"", m.RunName())
	}
	for _, k := range reservedParamKeys {
		if _, clash := m.Params[k]; clash {
			return fmt.Errorf("manifest %s: parameter %q is reserved; use the top-level %q field", m.RunName(), k, k)
		}
	}
	if m.Seed < 0 {
		return fmt.Errorf("manifest %s: seed %d: must be non-negative", m.RunName(), m.Seed)
	}
	if m.Seeds < 0 {
		return fmt.Errorf("manifest %s: seeds %d: must be non-negative", m.RunName(), m.Seeds)
	}
	if m.Trace {
		if m.EffectiveSeeds() > 1 {
			return fmt.Errorf("manifest %s: trace with %d seeds would write one trace from every seed concurrently; use one seed per traced run", m.RunName(), m.EffectiveSeeds())
		}
		if m.Shards > 1 {
			return fmt.Errorf("manifest %s: tracing is single-shard only (got shards=%d)", m.RunName(), m.Shards)
		}
	}
	if m.Metrics && m.EffectiveSeeds() > 1 {
		return fmt.Errorf("manifest %s: metrics with %d seeds would mix the process-wide pool counters across concurrent seeds; use one seed per metered run", m.RunName(), m.EffectiveSeeds())
	}
	if m.Sweep == nil {
		p := m.BuildParams()
		m.TraceParams(p, m.TraceFile)
		m.MetricsParams(p, m.MetricsFile)
		_, err := Build(m.Scenario, p)
		return err
	}
	for _, ax := range m.Sweep.Vary {
		if ax.Key == "" || len(ax.Values) == 0 {
			return fmt.Errorf("manifest %s: sweep axis %q has no values", m.RunName(), ax.Key)
		}
	}
	// Validate every cell exactly as Sweep would, without running any:
	// enumerate the cross product and Build each cell's params.
	cfg := m.SweepConfig(0)
	axes := make([]Axis, 0, 2+len(cfg.Axes))
	if len(cfg.Schedulers) > 0 {
		axes = append(axes, Axis{Key: "sched", Values: cfg.Schedulers})
	}
	if len(cfg.Controllers) > 0 {
		axes = append(axes, Axis{Key: "policy", Values: cfg.Controllers})
	}
	axes = append(axes, cfg.Axes...)
	for _, overrides := range crossProduct(axes) {
		p := cfg.Base.Clone()
		for _, kv := range overrides {
			k, v, _ := strings.Cut(kv, "=")
			p.Set(k, v)
		}
		m.TraceParams(p, m.TraceFile)
		m.MetricsParams(p, m.MetricsFile)
		if _, err := Build(m.Scenario, p); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot renders the resolved manifest — every field explicit, params
// sorted — as the manifest.json a workspace run directory stores. It is
// deterministic for a given manifest, so two identical runs snapshot
// byte-identically.
func (m *Manifest) Snapshot() ([]byte, error) {
	// Copy with defaults resolved, so the snapshot records what actually
	// ran rather than what the author omitted.
	c := *m
	c.Name = m.RunName()
	c.Seed = m.BaseSeed()
	c.Seeds = m.EffectiveSeeds()
	if len(c.Params) > 0 {
		// Maps marshal with sorted keys; copy so the snapshot cannot
		// alias the live manifest.
		params := make(map[string]string, len(c.Params))
		for k, v := range c.Params {
			params[k] = v
		}
		c.Params = params
	}
	buf, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest %s: snapshot: %w", m.RunName(), err)
	}
	return append(buf, '\n'), nil
}

// CellIDs enumerates the sweep's cell identifiers in execution order
// (empty for a non-sweep manifest) — the names of the per-cell
// directories a workspace run produces.
func (m *Manifest) CellIDs() []string {
	if m.Sweep == nil {
		return nil
	}
	axes := make([]Axis, 0, 2+len(m.Sweep.Vary))
	if len(m.Sweep.Schedulers) > 0 {
		axes = append(axes, Axis{Key: "sched", Values: m.Sweep.Schedulers})
	}
	if len(m.Sweep.Controllers) > 0 {
		axes = append(axes, Axis{Key: "policy", Values: m.Sweep.Controllers})
	}
	for _, ax := range m.Sweep.Vary {
		axes = append(axes, Axis{Key: ax.Key, Values: ax.Values})
	}
	var ids []string
	for _, overrides := range crossProduct(axes) {
		ids = append(ids, CellID(overrides))
	}
	return ids
}
