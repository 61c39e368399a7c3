// Command soifsck verifies and repairs soi's on-disk artifacts: cascade
// indexes (SOIIDX03, from sphere -build-index), sphere stores (SOISPH03,
// from sphere -all -store), sketches (SOISKC02, from sphere -sketch-out) and
// checkpoints (SOICKP02, from any -checkpoint run). All four are blockfile
// containers, so one path covers them: the kind is picked from the file's
// magic, then the header, the directory, every block (CRC32-C and the
// kind's structural decode), the whole-file footer and trailing bytes are
// checked, and one pass lists every bad block rather than stopping at the
// first:
//
//	soifsck idx.bin                  # verify, summarize
//	soifsck -v idx.bin               # ... with one line per block
//	soifsck -repair fixed.bin idx.bin
//
// Repair copies every block that verifies into a fresh container. Index
// worlds are independent samples, so a repaired index drops its corrupt
// worlds and keeps the rest; estimates over it carry correspondingly wider
// error bounds. The other kinds need every block, so repair fixes only
// footer and trailing-byte damage; a corrupt block means a rebuild. Files
// in retired formats (SOIIDX01/02, SOISPH01/02, SOISKC01, SOICKP01) are
// reported with the command that rebuilds them.
//
// Exit codes: 0 every file verified clean, 1 corruption was found (repair
// may still have succeeded), 2 a file could not be checked or repaired at
// all (I/O error, unrecognized or retired format, bad usage).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/index"
	"soi/internal/sketch"
)

// kinds are the artifact kinds soifsck recognizes, dispatched on magic.
var kinds = []*blockfile.Kind{index.Artifact, core.SphereArtifact, sketch.Artifact, checkpoint.Artifact}

func main() {
	var (
		repair  = flag.String("repair", "", "write a repaired copy of FILE to this path (exactly one FILE)")
		verbose = flag.Bool("v", false, "print one line per block, not just the bad ones")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: soifsck [-v] FILE...\n       soifsck -repair OUT FILE\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("soifsck: ")
	if flag.NArg() == 0 || (*repair != "" && flag.NArg() != 1) {
		flag.Usage()
		os.Exit(2)
	}

	exit := 0
	for _, path := range flag.Args() {
		code := checkFile(path, *repair, *verbose)
		if code > exit {
			exit = code
		}
	}
	os.Exit(exit)
}

// checkFile verifies (and optionally repairs) one file, returning its exit
// code contribution.
func checkFile(path, repair string, verbose bool) int {
	var rep *blockfile.Report
	var kept int
	var err error
	if repair != "" {
		rep, kept, err = blockfile.Repair(path, repair, kinds...)
	} else {
		rep, err = blockfile.Fsck(path, kinds...)
	}
	if rep == nil {
		log.Printf("%s: %v", path, err)
		return 2
	}
	if rep.Kind == nil {
		log.Printf("%s: %v", path, rep.Fatal)
		return 2
	}
	k := rep.Kind
	log.Printf("%s: %s %s n=%d %ss=%d size=%d", path, rep.Format, k.Name, rep.N, k.Unit, len(rep.Blocks), rep.FileSize)
	if rep.Fatal != nil {
		log.Printf("%s: FATAL: %v", path, rep.Fatal)
	}
	for i, b := range rep.Blocks {
		switch {
		case b.Err != nil:
			log.Printf("%s: %s %d: off=%d len=%d CORRUPT: %v", path, k.Unit, i, b.Off, b.Len, b.Err)
		case verbose:
			log.Printf("%s: %s %d: off=%d len=%d ok", path, k.Unit, i, b.Off, b.Len)
		}
	}
	if rep.Fatal == nil && !rep.FooterOK {
		log.Printf("%s: whole-file checksum footer CORRUPT", path)
	}
	if rep.Trailing > 0 {
		log.Printf("%s: %d trailing bytes after the footer", path, rep.Trailing)
	}
	if err != nil { // repair failed
		log.Printf("%s: repair: %v", path, err)
		return 2
	}
	if repair != "" {
		log.Printf("%s: repaired to %s: kept %d of %d %ss", path, repair, kept, len(rep.Blocks), k.Unit)
	}
	if rep.Clean() {
		log.Printf("%s: clean (%d %ss)", path, len(rep.Blocks), k.Unit)
		return 0
	}
	log.Printf("%s: %d of %d %ss corrupt", path, rep.Bad(), len(rep.Blocks), k.Unit)
	return 1
}
