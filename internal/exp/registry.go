package exp

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable reproduction of one paper artefact.
type Experiment struct {
	Brief string
	Run   func(Options) []Table
}

// Registry returns all experiments, keyed by name.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"fig2": {
			Brief: "flow-size rank distribution of the traces",
			Run:   func(o Options) []Table { return []Table{Fig2(o)} },
		},
		"tab4": {
			Brief: "Table IV traffic parameters as configured",
			Run:   func(o Options) []Table { return []Table{Tab4()} },
		},
		"scenarios": {
			Brief: "Table V/VI trace groups and scenario matrix",
			Run:   func(o Options) []Table { return []Table{ScenarioTable()} },
		},
		"fig7": {
			Brief: "drops / cold-cache / OOO for FCFS, AFS, LAPS on T1-T8",
			Run:   Fig7,
		},
		"fig8a": {
			Brief: "AFD false positives vs annex size",
			Run:   func(o Options) []Table { return []Table{Fig8a(o)} },
		},
		"fig8b": {
			Brief: "AFD accuracy vs evaluation window",
			Run:   func(o Options) []Table { return []Table{Fig8b(o)} },
		},
		"fig8c": {
			Brief: "AFD false positives vs packet sampling",
			Run:   func(o Options) []Table { return []Table{Fig8c(o)} },
		},
		"fig9": {
			Brief: "drops / OOO / migrations relative to AFS with top-k migration",
			Run:   Fig9,
		},
		"ablation": {
			Brief: "design ablations: two-level vs single cache, LFU vs LRU, promote threshold",
			Run:   func(o Options) []Table { return Ablation(o) },
		},
		"extensions": {
			Brief: "beyond the paper: adaptive hashing, egress re-order buffer, per-service latency",
			Run:   Extensions,
		},
		"timing": {
			Brief: "III-G: scheduler decision cost (ns/decision, Mdecisions/s)",
			Run:   func(o Options) []Table { return []Table{Timing(o)} },
		},
		"timeline": {
			Brief: "LAPS core-allocation time series under seasonal overload",
			Run:   func(o Options) []Table { return []Table{Timeline(o)} },
		},
		"provisioning": {
			Brief: "drop rate vs core count: dynamic vs static partitioning",
			Run:   func(o Options) []Table { return []Table{Provisioning(o)} },
		},
	}
}

// Names returns the experiment names in stable order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by name.
func Run(name string, opts Options) ([]Table, error) {
	e, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(opts), nil
}

// RunAll executes every experiment in stable order.
func RunAll(opts Options) []Table {
	var out []Table
	for _, name := range Names() {
		out = append(out, Registry()[name].Run(opts)...)
	}
	return out
}

// ScenarioTable prints the Table V/VI equivalents: which synthetic trace
// feeds each service in each scenario.
func ScenarioTable() Table {
	t := Table{
		Title:   "Tables V+VI: traffic scenarios (parameter set x trace group)",
		Columns: []string{"scenario", "set", "group", "S1-trace", "S2-trace", "S3-trace", "S4-trace", "target-util"},
	}
	for i, sc := range Scenarios() {
		set := "Set1"
		if i >= 4 {
			set = "Set2"
		}
		var names [4]string
		for s := 0; s < 4; s++ {
			names[s] = sc.Group.Sources[s]().Name()
		}
		t.AddRow(sc.Name, set, sc.Group.Name, names[0], names[1], names[2], names[3], f(sc.TargetUtil))
	}
	t.AddNote("paper's Table VI lists T8 as Set2+G3 (duplicate of T7); we read it as G4")
	return t
}
