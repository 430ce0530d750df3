package core

import (
	"fmt"
	"sort"
	"strings"

	"flexos/internal/isolation"
)

// CompReport describes one compartment in an image report.
type CompReport struct {
	Name      string
	Key       uint8
	Libs      []string
	Hardening string
	Allocator string
}

// GateBinding records one build-time gate instantiation — the output of
// the "source transformation" step, inspectable like the paper's
// Coccinelle diffs.
type GateBinding struct {
	From, To string
	Gate     string
	Cost     uint64
	// Calls counts crossings performed through this binding so far,
	// so reports taken after a run double as communication profiles.
	Calls uint64
}

// SharedVarReport is one __shared annotation and its placement.
type SharedVarReport struct {
	Lib, Name string
	Size      int
	Addr      uintptr
	// Key is the protection domain the builder chose: the owner's key
	// (whitelist fully local), a restricted pairwise key, or the global
	// shared key.
	Key  uint8
	With []string
}

// TableOneRow reproduces a row of the paper's Table 1 (porting effort).
type TableOneRow struct {
	Lib        string
	PatchAdd   int
	PatchDel   int
	SharedVars int
}

// Report is a full description of a built image: what the
// cmd/flexos-build tool prints and what tests assert on.
type Report struct {
	Mechanism string
	GateMode  string
	Sharing   string
	Comps     []CompReport
	Gates     []GateBinding
	Backend   isolation.ImageStats
	DSSBytes  uintptr
	Shared    []SharedVarReport
	TCBLibs   []string
	// VerifiedLibs lists formally verified components and whether each
	// is isolated from unverified code (its compartment contains only
	// verified components), which is when its proofs keep holding (§7).
	VerifiedLibs []VerifiedReport
}

// VerifiedReport is one verified component's isolation status.
type VerifiedReport struct {
	Lib      string
	Comp     string
	Isolated bool
}

// Report builds the image's report.
func (img *Image) Report() Report {
	r := Report{
		Mechanism: img.Spec.Mechanism,
		GateMode:  img.Spec.GateMode.String(),
		Sharing:   img.Spec.Sharing.String(),
		Backend:   img.Backend.Stats(),
		DSSBytes:  img.dssBytes,
	}
	for _, c := range img.comps {
		cr := CompReport{
			Name:      c.Name,
			Key:       uint8(c.Key),
			Hardening: c.Hardening.String(),
		}
		if c.Heap != nil {
			cr.Allocator = c.Heap.Name()
		}
		allVerified := true
		for _, lib := range c.Libs {
			if !lib.Verified {
				allVerified = false
			}
		}
		for _, lib := range c.Libs {
			cr.Libs = append(cr.Libs, lib.Name)
			if lib.TCB {
				r.TCBLibs = append(r.TCBLibs, lib.Name)
			}
			if lib.Verified {
				r.VerifiedLibs = append(r.VerifiedLibs, VerifiedReport{
					Lib: lib.Name, Comp: c.Name, Isolated: allVerified,
				})
			}
			for _, sv := range lib.Shared {
				addr, _ := img.SharedVarAddr(lib.Name, sv.Name)
				key, _ := img.SharedVarKey(lib.Name, sv.Name)
				r.Shared = append(r.Shared, SharedVarReport{
					Lib: lib.Name, Name: sv.Name, Size: sv.Size, Addr: addr,
					Key: uint8(key), With: sv.With,
				})
			}
		}
		sort.Strings(cr.Libs)
		r.Comps = append(r.Comps, cr)
	}
	sort.Strings(r.TCBLibs)
	for i := range img.gates {
		g := &img.gates[i]
		if !g.cross {
			continue
		}
		r.Gates = append(r.Gates, GateBinding{
			From: img.comps[g.from].Name, To: img.comps[g.to].Name,
			Gate: g.Gate.String(), Cost: g.Gate.Cost(), Calls: g.calls,
		})
	}
	sort.Slice(r.Gates, func(i, j int) bool {
		if r.Gates[i].From != r.Gates[j].From {
			return r.Gates[i].From < r.Gates[j].From
		}
		return r.Gates[i].To < r.Gates[j].To
	})
	return r
}

// TableOne reproduces Table 1 for the components in the catalog that
// carry porting-effort metadata.
func TableOne(cat *Catalog) []TableOneRow {
	var rows []TableOneRow
	for _, name := range cat.Names() {
		c, _ := cat.Lookup(name)
		if c.PatchAdd == 0 && c.PatchDel == 0 && len(c.Shared) == 0 {
			continue
		}
		rows = append(rows, TableOneRow{
			Lib: name, PatchAdd: c.PatchAdd, PatchDel: c.PatchDel, SharedVars: len(c.Shared),
		})
	}
	return rows
}

// String renders the report as text.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FlexOS image: mechanism=%s gate=%s sharing=%s\n", r.Mechanism, r.GateMode, r.Sharing)
	fmt.Fprintf(&b, "backend: VMs=%d TCB copies=%d TCB ~%d LoC\n", r.Backend.VMs, r.Backend.TCBCopies, r.Backend.TCBLoC)
	if r.DSSBytes > 0 {
		fmt.Fprintf(&b, "DSS space overhead: %d KiB\n", r.DSSBytes/1024)
	}
	for _, c := range r.Comps {
		fmt.Fprintf(&b, "compartment %-10s key=%-2d hardening=%-24s libs=%s\n",
			c.Name, c.Key, c.Hardening, strings.Join(c.Libs, ","))
	}
	for _, g := range r.Gates {
		fmt.Fprintf(&b, "gate %-10s -> %-10s %-12s %4d cycles  %8d calls\n", g.From, g.To, g.Gate, g.Cost, g.Calls)
	}
	if len(r.TCBLibs) > 0 {
		fmt.Fprintf(&b, "TCB libraries: %s\n", strings.Join(r.TCBLibs, ","))
	}
	fmt.Fprintf(&b, "shared variables: %d\n", len(r.Shared))
	return b.String()
}
