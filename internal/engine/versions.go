package engine

import (
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// Roots is one version of a versioned object index: the inverted file's
// root set and, for SIF and SIF-P, the signatures (zero for the plain
// inverted file). A published Roots is immutable; a mutation starts from a
// shallow copy, which the ...At methods below clone further as they write.
type Roots struct {
	Inv invindex.Roots
	Sig sig.Roots
}

// Versioned is the copy-on-write seam of an object index that supports
// mutation under MVCC: readers bind to a published root set and a pinned
// page source, mutators write a private page batch and a private Roots
// copy. *sig.SIF serves SIF and SIF-P alike; the plain inverted file is
// the other implementation; the experiments' IR, SIF-G and C1 baselines
// have none.
type Versioned interface {
	// Roots returns a copy of the root set of the index as built.
	Roots() *Roots
	// ReaderAt binds the index's query logic to r and the page source pr.
	ReaderAt(pr storage.PageReader, r *Roots) index.Loader
	// InsertObjectAt adds an object's postings (terms normalized) through
	// p, updating the private copy r.
	InsertObjectAt(p storage.Pager, r *Roots, id obj.ID, pos graph.Position, terms []obj.TermID) error
	// RemoveObjectAt deletes an object's postings through p, updating the
	// private copy r.
	RemoveObjectAt(p storage.Pager, r *Roots, id obj.ID, e graph.EdgeID, terms []obj.TermID) error
}

type sifVersions struct{ s *sig.SIF }

func (v sifVersions) Roots() *Roots { return &Roots{Inv: v.s.Index().Roots(), Sig: v.s.Roots()} }

func (v sifVersions) ReaderAt(pr storage.PageReader, r *Roots) index.Loader {
	return v.s.ReaderAt(pr, &r.Inv, &r.Sig)
}

func (v sifVersions) InsertObjectAt(p storage.Pager, r *Roots, id obj.ID, pos graph.Position, terms []obj.TermID) error {
	return v.s.InsertObjectAt(p, &r.Inv, &r.Sig, id, pos.Edge, pos.Offset, terms)
}

func (v sifVersions) RemoveObjectAt(p storage.Pager, r *Roots, id obj.ID, e graph.EdgeID, terms []obj.TermID) error {
	return v.s.RemoveObjectAt(p, &r.Inv, id, e, terms)
}

type ifVersions struct{ l *invindex.Loader }

func (v ifVersions) Roots() *Roots { return &Roots{Inv: v.l.Idx.Roots()} }

func (v ifVersions) ReaderAt(pr storage.PageReader, r *Roots) index.Loader {
	return v.l.At(pr, &r.Inv)
}

func (v ifVersions) InsertObjectAt(p storage.Pager, r *Roots, id obj.ID, pos graph.Position, terms []obj.TermID) error {
	return v.l.Idx.InsertObjectAt(p, &r.Inv, v.l.Coder.EdgeZCode(pos.Edge), id, pos.Offset, terms)
}

func (v ifVersions) RemoveObjectAt(p storage.Pager, r *Roots, id obj.ID, e graph.EdgeID, terms []obj.TermID) error {
	return v.l.Idx.RemoveObjectAt(p, &r.Inv, v.l.Coder.EdgeZCode(e), id, terms)
}
