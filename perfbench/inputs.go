package main

import (
	"fmt"

	"nocsched/internal/ctg"
	"nocsched/internal/energy"
	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

// The platforms: the paper's 4x4 heterogeneous XY mesh with bandwidth
// 256 (also serve's default platform), and a 6x6 mesh of the same kind
// that doubles the per-probe route work.
var (
	mesh4 = noc.PlatformSpec{Topology: "mesh", Width: 4, Height: 4, Routing: "xy", Bandwidth: 256}
	mesh6 = noc.PlatformSpec{Topology: "mesh", Width: 6, Height: 6, Routing: "xy", Bandwidth: 256}
)

// instance is one scheduling problem of a solver suite.
type instance struct {
	name      string
	g         *ctg.Graph
	acg       *energy.ACG
	deadlines int // tasks carrying a hard deadline
}

func newInstance(g *ctg.Graph, acg *energy.ACG) instance {
	n := 0
	for _, t := range g.Tasks() {
		if t.Deadline != ctg.NoDeadline {
			n++
		}
	}
	return instance{name: g.Name, g: g, acg: acg, deadlines: n}
}

// buildACG builds the platform and ACG of a spec, timing the
// energy.BuildACG call under the given span name.
func buildACG(spec noc.PlatformSpec, rec *recorder, name string) (*energy.ACG, error) {
	platform, err := spec.Build()
	if err != nil {
		return nil, err
	}
	_, end := rec.begin(name, 0, 0)
	acg, err := energy.BuildACG(platform, energy.DefaultModel())
	end()
	return acg, err
}

// tightSuite is the paper's Category II suite (tgff.SuiteParams) on the
// 4x4 mesh, graph for graph.
func tightSuite(acg4 *energy.ACG, limit int) ([]instance, error) {
	var out []instance
	for i := 0; i < tgff.SuiteSize && len(out) < limit; i++ {
		p := tgff.SuiteParams(tgff.CategoryII, i, acg4.Platform())
		g, err := tgff.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("tight-suite graph %d: %w", i, err)
		}
		out = append(out, newInstance(g, acg4))
	}
	return out, nil
}

// looseSize is the number of loose-suite graphs: two 4x4 graphs for
// every 6x6 graph, so the median solve lies inside the 4x4 population
// rather than on the boundary between the two meshes.
const looseSize = 36

// looseLaxity leaves so much slack that Step 3 never runs.
const looseLaxity = 3.0

// looseSuite generates the loose-suite graphs: Category II shapes at
// laxity 3.0, every third graph on the 6x6 mesh.
func looseSuite(acg4, acg6 *energy.ACG, n int) ([]instance, error) {
	var out []instance
	for i := 0; i < n; i++ {
		acg := acg4
		if i%3 == 2 {
			acg = acg6
		}
		p := tgff.SuiteParams(tgff.CategoryII, i%tgff.SuiteSize, acg.Platform())
		p.Name = fmt.Sprintf("loose-%02d-%dpe", i, acg.NumPEs())
		p.Seed = 50_000 + int64(i)*7_919
		p.DeadlineLaxity = looseLaxity
		g, err := tgff.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("loose-suite graph %d: %w", i, err)
		}
		out = append(out, newInstance(g, acg))
	}
	return out, nil
}

// only4x4 keeps the instances on the 4x4 mesh: the dls-suite.
func only4x4(insts []instance) []instance {
	var out []instance
	for _, in := range insts {
		if in.acg.NumPEs() == 16 {
			out = append(out, in)
		}
	}
	return out
}
