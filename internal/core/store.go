package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
)

// Persistent sphere store — the paper's §8 deployment scenario: "having the
// spheres of influence precomputed and stored in an index might provide a
// direct solution to several variants of influence maximization... when the
// next campaign is run, we can again reuse the same spheres of influence."
//
// The store serializes the per-node typical cascades with their cost
// estimates; a later process loads them and runs any of the max-cover
// variants (plain, weighted, budgeted) without touching the sampler.
//
// The file is a blockfile container (see internal/blockfile) with magic
// "SOISPH03": the size word is the node count, and block r holds the
// records of node range r (blockfile.NodeRange), its aux word the range's
// node count. Per node, in id order (little endian):
//
//	setLen       uint32
//	set          [setLen]int32   strictly ascending member ids
//	sampleCost   float64
//	expectedCost float64

// SphereArtifact is the sphere store's container kind. Stores in the
// retired SOISPH01/02 formats fail with a bad-magic error naming the
// rebuild command.
var SphereArtifact = &blockfile.Kind{
	Magic:   [8]byte{'S', 'O', 'I', 'S', 'P', 'H', '0', '3'},
	Name:    "sphere store",
	Unit:    "block",
	Rebuild: "sphere -all -store",
	Layout: func(n uint32, dir []blockfile.BlockInfo) error {
		if n > maxStoreNodes {
			return fmt.Errorf("implausible node count %d", n)
		}
		return blockfile.CheckRanges(n, dir, 0)
	},
	Decoder: func(n uint32, _ []blockfile.BlockInfo) blockfile.Decoder {
		return func(r int, data []byte) error {
			_, err := decodeSpheres(nil, data, n, r)
			return err
		}
	},
}

const maxStoreNodes = 1 << 28

// SaveSpheres writes the results of ComputeAll as a sphere store. Results
// must be indexed by node id (results[v].Seeds == [v]), as ComputeAll
// produces.
func SaveSpheres(w io.Writer, results []Result) error {
	for v := range results {
		if r := &results[v]; len(r.Seeds) != 1 || r.Seeds[0] != graph.NodeID(v) {
			return fmt.Errorf("core: result %d is not the single-source sphere of node %d", v, v)
		}
	}
	blocks := make([]blockfile.Block, blockfile.Ranges(len(results)))
	for r := range blocks {
		lo, hi := blockfile.NodeRange(r, len(results))
		rs := results[lo:hi]
		blocks[r] = blockfile.Block{Aux: uint32(len(rs)), Encode: func(w io.Writer) error { return encodeSpheres(w, rs) }}
	}
	_, err := blockfile.Write(w, SphereArtifact.Magic, uint32(len(results)), blocks)
	return err
}

// encodeSpheres writes one node range's records, one record at a time.
func encodeSpheres(w io.Writer, rs []Result) error {
	var buf []byte
	for i := range rs {
		r := &rs[i]
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(r.Set)))
		for _, v := range r.Set {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.SampleCost))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.ExpectedCost))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// decodeSpheres appends the spheres of node range r of an n-node store,
// decoded and validated from the range's block, to dst.
func decodeSpheres(dst []Result, data []byte, n uint32, r int) ([]Result, error) {
	lo, hi := blockfile.NodeRange(r, int(n))
	le := binary.LittleEndian
	for v := lo; v < hi; v++ {
		if len(data) < 4 {
			return dst, fmt.Errorf("node %d record truncated", v)
		}
		setLen := le.Uint32(data)
		if setLen > n {
			return dst, fmt.Errorf("node %d sphere size %d exceeds node count", v, setLen)
		}
		if uint64(len(data)) < 4+4*uint64(setLen)+16 {
			return dst, fmt.Errorf("node %d record truncated", v)
		}
		set := make([]graph.NodeID, setLen)
		prev := graph.NodeID(-1)
		for j := range set {
			e := graph.NodeID(int32(le.Uint32(data[4+4*j:])))
			if e < 0 || uint32(e) >= n {
				return dst, fmt.Errorf("node %d sphere contains out-of-range member %d", v, e)
			}
			if e <= prev {
				return dst, fmt.Errorf("node %d sphere not strictly sorted", v)
			}
			set[j], prev = e, e
		}
		data = data[4+4*setLen:]
		sampleCost := math.Float64frombits(le.Uint64(data))
		expectedCost := math.Float64frombits(le.Uint64(data[8:]))
		data = data[16:]
		if math.IsNaN(sampleCost) || sampleCost < 0 || sampleCost > 1 {
			return dst, fmt.Errorf("node %d has invalid sample cost %v", v, sampleCost)
		}
		if math.IsNaN(expectedCost) || expectedCost < -1 || expectedCost > 1 {
			return dst, fmt.Errorf("node %d has invalid expected cost %v", v, expectedCost)
		}
		dst = append(dst, Result{
			Seeds:        []graph.NodeID{graph.NodeID(v)},
			Set:          set,
			SampleCost:   sampleCost,
			ExpectedCost: expectedCost,
		})
	}
	if len(data) != 0 {
		return dst, fmt.Errorf("%d trailing bytes after the last record", len(data))
	}
	return dst, nil
}

// LoadSpheres reads a sphere store, strictly: any corruption rejects it.
// Results are indexed by node id; timing fields are zero (they describe the
// original computation, not the load).
func LoadSpheres(r io.Reader) ([]Result, error) {
	var out []Result
	err := blockfile.Read(r, SphereArtifact, func(n uint32, _ []blockfile.BlockInfo) (blockfile.Decoder, error) {
		out = make([]Result, 0, min(n, 1<<16))
		return func(r int, data []byte) (err error) {
			out, err = decodeSpheres(out, data, n, r)
			return err
		}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return out, nil
}

// SaveSpheresFile writes the sphere store to path atomically (temp file +
// rename + directory sync), so an interrupted save never leaves a truncated
// store behind.
func SaveSpheresFile(path string, results []Result) error {
	if err := fault.Hit(fault.StoreSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return SaveSpheres(w, results)
	})
}

// LoadSpheresFile reads a sphere store from path.
func LoadSpheresFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSpheres(f)
}
