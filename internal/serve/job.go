// Package serve hosts the simulator as a long-running HTTP/JSON job
// service: a bounded admission queue in front of a worker pool running
// registered workloads and experiments, with a content-addressed result
// cache. Every run is deterministic for its spec, so the cache returns
// byte-identical bodies to a fresh run — and to `tsim -json` on the
// same flags.
package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tseries/internal/core"
	"tseries/internal/workloads"
)

// Admission limits on the wire format. Oversized or malformed specs are
// rejected with typed 400s before any registry lookup runs, so a
// hostile client cannot make the parser allocate without bound.
const (
	MaxBodyBytes  = 64 << 10 // request body cap, enforced with http.MaxBytesReader too
	maxFlags      = 32       // distinct flags per job
	maxFlagName   = 64       // bytes per flag name
	maxFlagValue  = 256      // bytes per flag value
	maxNameLen    = 128      // workload/experiment name length
	maxTenantLen  = 64       // tenant identifier length
	defaultTenant = "anon"
	// MaxKernelShards caps the per-job kernel_shards request. The knob is
	// physical only, so the cap bounds host cost, never results.
	MaxKernelShards = 64
)

// JobSpec is the submission wire format. Exactly one of Workload or
// Experiment must be set. Flags override workload Config defaults and
// are validated against the workload's declared flag set, so a typo is
// a 400, not a silently ignored knob.
type JobSpec struct {
	Tenant     string            `json:"tenant,omitempty"`
	Workload   string            `json:"workload,omitempty"`
	Experiment string            `json:"experiment,omitempty"`
	Flags      map[string]string `json:"flags,omitempty"`

	// KernelShards asks the job's kernel to execute on up to this many
	// host workers (see workloads.Config.KernelShards). It is a hosting
	// knob with no effect on results, so it is excluded from the result
	// cache key, and the server may grant fewer workers than requested
	// when the shared shard budget is exhausted (Options.ShardBudget) —
	// the job degrades toward serial rather than queueing behind budget.
	// Machine simulations partition by geometry (one logical shard per
	// module; machine.NewAuto) and take the knob as their host worker
	// count, so results stay byte-identical at every value.
	KernelShards int `json:"kernel_shards,omitempty"`
}

// APIError is a typed request rejection: an HTTP status, a stable
// machine-readable code, and a human-readable message. It is the only
// error shape the HTTP layer emits for client faults.
type APIError struct {
	Status int    `json:"-"`
	Code   string `json:"code"`
	Msg    string `json:"message"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Msg }

func badRequest(code, format string, args ...interface{}) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// ParseJobSpec decodes and syntactically validates a submission body.
// It never panics on any input (FuzzParseJob pins this) and rejects
// anything outside the admission limits above.
func ParseJobSpec(body []byte) (*JobSpec, *APIError) {
	if len(body) > MaxBodyBytes {
		return nil, &APIError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
			Msg: fmt.Sprintf("body %d bytes exceeds %d", len(body), MaxBodyBytes)}
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, badRequest("bad_json", "cannot decode job spec: %v", err)
	}
	// A trailing second document is a malformed request, not extra data
	// to ignore.
	if dec.More() {
		return nil, badRequest("bad_json", "trailing data after job spec")
	}
	if spec.Tenant == "" {
		spec.Tenant = defaultTenant
	}
	if len(spec.Tenant) > maxTenantLen {
		return nil, badRequest("bad_spec", "tenant longer than %d bytes", maxTenantLen)
	}
	if (spec.Workload == "") == (spec.Experiment == "") {
		return nil, badRequest("bad_spec", `exactly one of "workload" or "experiment" must be set`)
	}
	if len(spec.Workload) > maxNameLen || len(spec.Experiment) > maxNameLen {
		return nil, badRequest("bad_spec", "workload/experiment name longer than %d bytes", maxNameLen)
	}
	if spec.Experiment != "" && len(spec.Flags) > 0 {
		return nil, badRequest("bad_spec", "experiment jobs take no flags")
	}
	if len(spec.Flags) > maxFlags {
		return nil, badRequest("bad_spec", "more than %d flags", maxFlags)
	}
	if spec.KernelShards < 0 || spec.KernelShards > MaxKernelShards {
		return nil, badRequest("bad_spec", "kernel_shards %d outside 0..%d", spec.KernelShards, MaxKernelShards)
	}
	for k, v := range spec.Flags {
		if k == "" || len(k) > maxFlagName {
			return nil, badRequest("bad_flag", "flag name %q outside 1..%d bytes", k, maxFlagName)
		}
		if len(v) > maxFlagValue {
			return nil, badRequest("bad_flag", "flag %q value longer than %d bytes", k, maxFlagValue)
		}
	}
	return &spec, nil
}

// task is a resolved, runnable job: the registry entry plus the fully
// materialised Config and the content-address of the result.
type task struct {
	kind   string // "workload" or "experiment"
	name   string
	runner workloads.Runner
	exp    core.Experiment
	cfg    workloads.Config
	key    string
}

// seed is accepted for every workload on top of its declared flags:
// all inputs are generated from it, so it is part of every run's
// content address whether or not the workload lists it.
const seedFlag = "seed"

// resolveWorkload materialises a workload spec: defaults, then flag
// overrides validated against the runner's declared flag set, then the
// canonical cache key over the *resolved* values — so flag order never
// matters and an explicit default hits the same cache line as an
// omitted flag. Values go through tsim's own flag table
// (Config.RegisterFlags), so they parse exactly as on its command line.
func resolveWorkload(spec *JobSpec, r workloads.Runner) (task, *APIError) {
	allowed := map[string]bool{seedFlag: true}
	for _, f := range r.Flags() {
		allowed[f] = true
	}
	jf := jobFlagPool.Get().(*jobFlags)
	defer jobFlagPool.Put(jf)
	jf.cfg = workloads.DefaultConfig()
	for name, val := range spec.Flags {
		if !allowed[name] {
			return task{}, badRequest("unknown_flag",
				"workload %q takes no flag %q (valid: %s, seed)", spec.Workload, name, strings.Join(r.Flags(), ", "))
		}
		if err := jf.fs.Set(name, val); err != nil {
			return task{}, badRequest("bad_flag", "flag %q: bad value %q: %v", name, val, err)
		}
	}
	cfg := jf.cfg
	// KernelShards lands in the Config but — like Ctx — stays out of the
	// cache key below: it shapes how the run is hosted, not what it
	// computes, and sharded runs are byte-identical to serial ones.
	cfg.KernelShards = spec.KernelShards
	t := task{kind: "workload", name: r.Name(), runner: r, cfg: cfg}
	t.key = workloadKey(r, cfg, spec.Flags["faults"], spec.Flags["chaos"])
	return t, nil
}

// jobFlags is a Config with the flag table registered on it. Building
// the table costs more than resolving a job, and journal replay resolves
// every recorded job at startup, so tables are pooled and reset to the
// defaults per use.
type jobFlags struct {
	cfg workloads.Config
	fs  *flag.FlagSet
}

var jobFlagPool = sync.Pool{New: func() any {
	jf := &jobFlags{fs: flag.NewFlagSet("job", flag.ContinueOnError)}
	jf.cfg.RegisterFlags(jf.fs)
	return jf
}}

// workloadKey is the content address of a workload run: the workload
// name plus every resolved knob it consumes, in sorted order. Config
// fully determines a deterministic run, so equal keys imply
// byte-identical result bodies. Ctx is a hosting concern and is
// deliberately absent.
func workloadKey(r workloads.Runner, cfg workloads.Config, faultStr, chaosStr string) string {
	fields := map[string]string{
		"dim":    strconv.Itoa(cfg.Dim),
		"n":      strconv.Itoa(cfg.N),
		"rows":   strconv.Itoa(cfg.Rows),
		"iters":  strconv.Itoa(cfg.Iters),
		"reps":   strconv.Itoa(cfg.Reps),
		"phases": strconv.Itoa(cfg.Phases),
		"pad":    strconv.FormatInt(int64(cfg.Pad), 10),
		"ckpt":   strconv.FormatInt(int64(cfg.Ckpt), 10),
	}
	relevant := map[string]bool{seedFlag: true}
	for _, f := range r.Flags() {
		relevant[f] = true
	}
	parts := []string{"workload=" + r.Name(), "seed=" + strconv.FormatInt(cfg.Seed, 10)}
	for _, f := range r.Flags() {
		switch f {
		case "faults":
			parts = append(parts, "faults="+faultStr)
		case "chaos":
			parts = append(parts, "chaos="+chaosStr)
		default:
			if v, ok := fields[f]; ok && relevant[f] {
				parts = append(parts, f+"="+v)
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// experimentKey addresses an experiment run. Experiments take no
// parameters, so the ID alone is the content address.
func experimentKey(id string) string { return "experiment=" + id }
