package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricList is the part of BENCHMARK.json that names the metrics: the
// end-to-end ones of an untraced run and the per-layer ones of a traced
// run, each with its unit.
type metricList struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadMetricList(path string) (*metricList, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metric list: %w", err)
	}
	var l metricList
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("metric list %s: %w", path, err)
	}
	return &l, nil
}

// complete checks a run's metrics against the declared ones: a measured
// metric must be declared with the same unit, and a declared metric the
// run did not measure is an error, or reads 0 when fill is set (a layer
// the workload does not run).
func complete(set metricSet, decls []metricDecl, fill bool) error {
	units := make(map[string]string, len(decls))
	for _, d := range decls {
		units[d.Name] = d.Unit
	}
	var bad []string
	for n, m := range set {
		if u, ok := units[n]; !ok || u != m.Unit {
			bad = append(bad, n+" ("+m.Unit+") is not declared")
		}
	}
	for _, d := range decls {
		if _, ok := set[d.Name]; ok {
			continue
		}
		if !fill {
			bad = append(bad, d.Name+" was not measured")
			continue
		}
		set.set(d.Name, 0, d.Unit)
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics do not match the benchmark's list: %v", bad)
	}
	return nil
}
