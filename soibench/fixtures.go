package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"soi"
	"soi/internal/core"
	"soi/internal/datasets"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/router"
	"soi/internal/scc"
	"soi/internal/sketch"
)

// graphFix is a generated graph as the daemons see it: written as an edge
// list, then parsed back so its dense order matches what soid loads.
// Requests and responses use the original ids.
type graphFix struct {
	path  string
	g     *graph.Graph
	orig  []int64 // dense -> original id
	dense map[int64]graph.NodeID
}

func newGraphFix(path string, g *graph.Graph, orig []int64) *graphFix {
	f := &graphFix{path: path, g: g, orig: orig, dense: make(map[int64]graph.NodeID, len(orig))}
	for d, o := range orig {
		f.dense[o] = graph.NodeID(d)
	}
	return f
}

func (f *graphFix) denseOf(ids []int64) []graph.NodeID {
	out := make([]graph.NodeID, len(ids))
	for i, id := range ids {
		out[i] = f.dense[id]
	}
	return out
}

func (f *graphFix) origOf(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = f.orig[v]
	}
	return out
}

// writeGraph writes g as an edge list at path and loads it back.
func writeGraph(path string, g *graph.Graph, orig []int64) (*graphFix, error) {
	var buf bytes.Buffer
	if err := graph.WriteTSV(&buf, g, orig); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	lg, lorig, err := graph.ReadTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("reloading %s: %w", path, err)
	}
	return newGraphFix(path, lg, lorig), nil
}

// genGraph materializes the workload's network: the dataset's canonical
// analog of the paper's fixed real network. The run's seed draws
// everything the paper treats as random instead: the possible worlds, the
// queries and the schedule.
func genGraph(dir string, ws WorkloadSpec) (*graphFix, error) {
	ds, err := datasets.Load(ws.Dataset, datasets.Config{Scale: ws.Scale})
	if err != nil {
		return nil, err
	}
	return writeGraph(filepath.Join(dir, "graph.tsv"), ds.Graph, nil)
}

// artifacts are one serving triple on disk plus the in-memory objects the
// checker recomputes answers from.
type artifacts struct {
	gf                          *graphFix
	idxPath, spherePath, skPath string
	x                           *index.Index // the index as loaded from idxPath
	spheres                     []core.Result
	sk                          *sketch.Sketch
}

func fileBytes(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

// buildArtifacts builds and saves an index over gf (and, when withStore,
// the sphere store and a sketch keyed to the saved index), the way
// `sphere -build-index/-all -store/-sketch-out` does.
//
// Each call into a layer is a span in rec (nil records nothing).
func buildArtifacts(gf *graphFix, prefix string, worlds int, seed uint64, sketchK int, withStore bool, rec *Recorder) (*artifacts, error) {
	a := &artifacts{gf: gf, idxPath: prefix + ".idx"}
	timed := func(name string, f func() error) error {
		sp := rec.Start(name, "build", 0)
		defer sp.End()
		return f()
	}
	var x *index.Index
	err := timed("index.build", func() (err error) {
		x, err = index.Build(gf.g, index.Options{Samples: worlds, Seed: seed, TransitiveReduction: true})
		return err
	})
	if err == nil {
		err = timed("index.save", func() error { return x.SaveFile(a.idxPath) })
	}
	if err == nil {
		err = timed("index.load", func() (err error) { a.x, err = index.LoadFile(a.idxPath, gf.g); return err })
	}
	if err != nil || !withStore {
		return a, err
	}
	a.spherePath, a.skPath = prefix+".spheres", prefix+".sketch"
	timed("core.compute_all", func() error { a.spheres = core.ComputeAll(x, core.Options{}); return nil })
	err = timed("core.store_save", func() error { return core.SaveSpheresFile(a.spherePath, a.spheres) })
	if err == nil {
		err = timed("sketch.build", func() (err error) {
			a.sk, err = sketch.Build(a.x, sketch.Options{K: sketchK, Seed: seed})
			return err
		})
	}
	if err == nil {
		err = timed("sketch.save", func() error { return a.sk.SaveFile(a.skPath) })
	}
	return a, err
}

func (a *artifacts) bytes() int64 { return fileBytes(a.idxPath, a.spherePath, a.skPath) }

// shardedFix is the serve-hot fixture: a graph partitioned the way
// `sphere -shards` does it, one artifact triple plus a sketch per shard,
// and the soi.topology/v1 manifest soigw reads.
type shardedFix struct {
	topoPath string
	topo     *router.Topology
	shards   []*artifacts
	owner    map[int64]int // original id -> shard
}

func buildSharded(dir string, gf *graphFix, ws WorkloadSpec, seed uint64, rec *Recorder) (*shardedFix, error) {
	sp := rec.Start("shard.partition", "build", 0)
	p, err := scc.Partition(gf.g, ws.Shards)
	sp.End()
	if err != nil {
		return nil, err
	}
	f := &shardedFix{owner: map[int64]int{}}
	f.topo = &router.Topology{
		Format:           router.TopologyFormat,
		GraphFingerprint: fmt.Sprintf("%016x", soi.Fingerprint(gf.g)),
		NumNodes:         gf.g.NumNodes(),
		CutEdges:         len(p.CutEdges),
		CutBound:         p.CutBound,
		CutProb:          p.CutProb,
	}
	for s := 0; s < ws.Shards; s++ {
		sub, back, err := p.Subgraph(gf.g, s)
		if err != nil {
			return nil, err
		}
		sgf, err := writeGraph(filepath.Join(dir, fmt.Sprintf("shard%d.tsv", s)), sub, gf.origOf(back))
		if err != nil {
			return nil, err
		}
		a, err := buildArtifacts(sgf, filepath.Join(dir, fmt.Sprintf("shard%d", s)), ws.Worlds, seed+uint64(s), ws.SketchK, true, rec)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		f.shards = append(f.shards, a)
		for _, o := range sgf.orig {
			f.owner[o] = s
		}
		f.topo.Shards = append(f.topo.Shards, router.ShardManifest{
			ID:               s,
			GraphFile:        filepath.Base(sgf.path),
			IndexFile:        filepath.Base(a.idxPath),
			SphereFile:       filepath.Base(a.spherePath),
			GraphFingerprint: fmt.Sprintf("%016x", soi.Fingerprint(sgf.g)),
			IndexFingerprint: fmt.Sprintf("%016x", a.x.Fingerprint()),
			NumNodes:         sgf.g.NumNodes(),
			NumEdges:         sgf.g.NumEdges(),
			Nodes:            sgf.orig,
		})
	}
	if err := f.topo.Validate(); err != nil {
		return nil, err
	}
	f.topoPath = filepath.Join(dir, "topology.json")
	return f, router.SaveTopology(f.topoPath, f.topo)
}
