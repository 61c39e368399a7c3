package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/scc"
)

// Binary serialization of the cascade index. The paper's deployment story
// is "precompute the spheres of influence and store them in an index"; the
// index is built once and reloaded — eagerly, or memory-mapped and paged in
// on demand — by query tools.
//
// The file is a blockfile container (see internal/blockfile) with magic
// "SOIIDX03": the size word is the node count, block i is world i, and the
// directory's aux word is the world's component count, so scratch sizing
// and NumComponents never touch the blocks. A world block is
//
//	comps   uint32
//	comp    [nodes]int32        node -> component
//	per component: deg uint32, then deg int32 successor ids
//
// The members CSR is rebuilt from comp at load time (cheaper than storing).
// The per-world record (writeEntry/readEntry) is shared with the checkpoint
// payload of BuildResumable, so a partially built index checkpoints its
// completed worlds in exactly the on-disk format.

// Artifact is the index's container kind. A file in a retired format
// (SOIIDX01/02) fails with a bad-magic error naming the rebuild command.
var Artifact = &blockfile.Kind{
	Magic:     [8]byte{'S', 'O', 'I', 'I', 'D', 'X', '0', '3'},
	Name:      "index",
	Unit:      "world",
	Rebuild:   "sphere -build-index",
	Layout:    checkLayout,
	Droppable: true,
	Decoder: func(nodes uint32, dir []blockfile.BlockInfo) blockfile.Decoder {
		return func(i int, data []byte) error {
			_, err := decodeWorld(data, nodes, dir[i].Aux)
			return err
		}
	},
}

// maxNodes bounds the header node count before any allocation trusts it;
// graph-free verification has no graph to cross-check against.
const maxNodes = 1 << 28

// checkLayout applies the per-entry sanity checks shared by every reader.
func checkLayout(nodes uint32, dir []blockfile.BlockInfo) error {
	if nodes == 0 || nodes > maxNodes {
		return fmt.Errorf("implausible node count %d", nodes)
	}
	if len(dir) == 0 {
		return fmt.Errorf("no worlds")
	}
	for i, b := range dir {
		if b.Aux == 0 || b.Aux > nodes {
			return fmt.Errorf("world %d has implausible component count %d", i, b.Aux)
		}
		// A world block is at least: comps word, comp array, one degree word
		// per component.
		if least := 4 + 4*int64(nodes) + 4*int64(b.Aux); int64(b.Len) < least {
			return fmt.Errorf("world %d block is %d bytes, minimum for %d components is %d", i, b.Len, b.Aux, least)
		}
	}
	return nil
}

// writeEntry serializes one world record: comps, comp[], then per-component
// successor lists.
func writeEntry(w io.Writer, e *worldEntry) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(e.dag))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, e.comp); err != nil {
		return err
	}
	for _, succs := range e.dag {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(succs))); err != nil {
			return err
		}
		if len(succs) > 0 {
			if err := binary.Write(w, binary.LittleEndian, succs); err != nil {
				return err
			}
		}
	}
	return nil
}

// readEntry parses and validates one world record for a graph with the given
// node count, rebuilding the members CSR.
func readEntry(br io.Reader, nodes uint32) (worldEntry, error) {
	var comps uint32
	if err := binary.Read(br, binary.LittleEndian, &comps); err != nil {
		return worldEntry{}, err
	}
	if comps == 0 || comps > nodes {
		return worldEntry{}, fmt.Errorf("implausible component count %d", comps)
	}
	comp := make([]int32, nodes)
	if err := binary.Read(br, binary.LittleEndian, comp); err != nil {
		return worldEntry{}, err
	}
	for v, c := range comp {
		if c < 0 || uint32(c) >= comps {
			return worldEntry{}, fmt.Errorf("node %d has component %d out of range", v, c)
		}
	}
	dag := make(scc.SliceGraph, comps)
	for c := range dag {
		var deg uint32
		if err := binary.Read(br, binary.LittleEndian, &deg); err != nil {
			return worldEntry{}, err
		}
		if deg > comps {
			return worldEntry{}, fmt.Errorf("component %d degree %d out of range", c, deg)
		}
		if deg > 0 {
			succs := make([]int32, deg)
			if err := binary.Read(br, binary.LittleEndian, succs); err != nil {
				return worldEntry{}, err
			}
			for _, s := range succs {
				if s < 0 || uint32(s) >= comps {
					return worldEntry{}, fmt.Errorf("successor %d out of range", s)
				}
			}
			dag[c] = succs
		}
	}
	return rebuildEntry(comp, int(comps), dag), nil
}

// decodeWorld decodes one world block, requiring the record to consume the
// block exactly and to have the directory's component count.
func decodeWorld(data []byte, nodes, comps uint32) (worldEntry, error) {
	br := bytes.NewReader(data)
	e, err := readEntry(br, nodes)
	if err != nil {
		return worldEntry{}, err
	}
	if br.Len() != 0 {
		return worldEntry{}, fmt.Errorf("%d trailing bytes in block", br.Len())
	}
	if uint32(len(e.dag)) != comps {
		return worldEntry{}, fmt.Errorf("decodes to %d components, directory says %d", len(e.dag), comps)
	}
	return e, nil
}

// blocks returns one container block per world. A lazily opened index must
// have every world readable: rewriting an artifact with quarantined worlds
// would silently drop data, so that is soifsck's job, not the writer's.
func (x *Index) blocks() ([]blockfile.Block, error) {
	out := make([]blockfile.Block, x.NumWorlds())
	for i := range out {
		e := x.world(i)
		if e == nil {
			return nil, fmt.Errorf("index: world %d is quarantined or unreadable; repair the source file with soifsck before rewriting it", i)
		}
		out[i] = blockfile.Block{Aux: uint32(len(e.dag)), Encode: func(w io.Writer) error { return writeEntry(w, e) }}
	}
	return out, nil
}

// WriteTo serializes the index as a SOIIDX03 container.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	blocks, err := x.blocks()
	if err != nil {
		return 0, err
	}
	return blockfile.Write(w, Artifact.Magic, uint32(x.g.NumNodes()), blocks)
}

// Fingerprint returns a content hash of the index — the graph plus the
// block directory (offset, length, CRC and component count per world) its
// file has or would have — cached after the first call. Hashing the
// directory rather than the decoded worlds makes a built index, the file it
// saves to, and an eager or mmap load of that file agree, and lets an mmap
// open fingerprint itself without faulting a block in; the per-block CRCs
// make it exactly as content-sensitive as hashing the worlds. Downstream
// checkpointed sweeps key their checkpoints on it, and soid and sketches
// use it to match artifacts.
func (x *Index) Fingerprint() uint64 {
	x.fpOnce.Do(func() {
		// Only a built index gets here (Read and OpenMmap set the
		// fingerprint from the directory they verified), and measuring
		// in-memory worlds only writes to a hash, so neither call can fail.
		blocks, _ := x.blocks()
		dir, _ := blockfile.Measure(blocks)
		x.fp = dirFingerprint(x.g, dir)
	})
	return x.fp
}

func dirFingerprint(g *graph.Graph, dir []blockfile.BlockInfo) uint64 {
	h := checkpoint.NewHasher().String("index.DirV3").Graph(g).Int(len(dir))
	for _, b := range dir {
		h.Uint64(uint64(b.Off)).
			Uint64(uint64(b.Len)<<32 | uint64(b.CRC)).
			Uint64(uint64(b.Aux))
	}
	return h.Sum()
}

// setFingerprint installs the fingerprint of a loaded directory.
func (x *Index) setFingerprint(dir []blockfile.BlockInfo) {
	x.fpOnce.Do(func() { x.fp = dirFingerprint(x.g, dir) })
}

// Read deserializes an index previously written with WriteTo, strictly:
// the directory, every block and the whole-file checksum are verified, and
// any corruption rejects the file (quarantine is OpenMmap's behavior). The
// graph g must be the same graph the index was built from (node count is
// checked; deeper mismatches surface as wrong query results, so callers
// should keep graph and index files paired).
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	x := &Index{g: g}
	var dir []blockfile.BlockInfo
	err := blockfile.Read(r, Artifact, func(nodes uint32, d []blockfile.BlockInfo) (blockfile.Decoder, error) {
		if int(nodes) != g.NumNodes() {
			return nil, fmt.Errorf("built for %d nodes, graph has %d", nodes, g.NumNodes())
		}
		dir = d
		x.entries = make([]worldEntry, 0, min(len(d), 4096))
		return func(i int, data []byte) error {
			e, err := decodeWorld(data, nodes, d[i].Aux)
			x.entries = append(x.entries, e)
			return err
		}, nil
	})
	if err != nil {
		return nil, err
	}
	x.setFingerprint(dir)
	return x, nil
}

func rebuildEntry(comp []int32, numComps int, dag scc.SliceGraph) worldEntry {
	off := make([]int32, numComps+1)
	for _, c := range comp {
		off[c+1]++
	}
	for c := 1; c <= numComps; c++ {
		off[c] += off[c-1]
	}
	members := make([]int32, len(comp))
	cursor := make([]int32, numComps)
	copy(cursor, off[:numComps])
	for v := int32(0); int(v) < len(comp); v++ {
		c := comp[v]
		members[cursor[c]] = v
		cursor[c]++
	}
	return worldEntry{comp: comp, memberOff: off, members: members, dag: dag}
}

// SaveFile writes the index to path atomically (temp file + rename +
// directory sync), so an interrupted save never leaves a truncated index
// behind.
func (x *Index) SaveFile(path string) error {
	if err := fault.Hit(fault.IndexSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := x.WriteTo(w)
		return err
	})
}

// LoadFile reads an index for graph g from path.
func LoadFile(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, g)
}
