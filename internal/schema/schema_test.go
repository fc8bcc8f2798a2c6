package schema

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// singleStudentDoc is Figure 2(a)'s structure with a course that has only
// one student — the §2.2 example: "if a <Course> node had just one student
// in its sub-tree, that instance would have been stored as 'Connecting
// node'". Schema-level categorization should classify it as an entity
// anyway, because students repeat under other courses.
func singleStudentDoc() *xmltree.Document {
	return xmltree.NewDocument("uni.xml", 0, xmltree.E("Dept",
		xmltree.ET("Dept_Name", "CS"),
		xmltree.E("Area",
			xmltree.ET("Name", "Databases"),
			xmltree.E("Courses",
				xmltree.E("Course",
					xmltree.ET("Name", "Data Mining"),
					xmltree.E("Students",
						xmltree.ET("Student", "Karen"),
						xmltree.ET("Student", "Mike"),
					),
				),
				xmltree.E("Course",
					xmltree.ET("Name", "Seminar"),
					xmltree.E("Students",
						xmltree.ET("Student", "Julie"),
					),
				),
			),
		),
	))
}

func build(t *testing.T, doc *xmltree.Document) *index.Index {
	t.Helper()
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestInferRepeats(t *testing.T) {
	ix := build(t, singleStudentDoc())
	s := Infer(ix)
	if !s.Repeats("Students", "Student") {
		t.Error("Student must be schema-repeating under Students")
	}
	if !s.Repeats("Courses", "Course") {
		t.Error("Course must be schema-repeating under Courses")
	}
	if s.Repeats("Course", "Name") {
		t.Error("Name must not repeat under Course")
	}
	if s.Repeats("NoSuch", "Label") {
		t.Error("unknown labels must not repeat")
	}
}

func TestEdges(t *testing.T) {
	ix := build(t, singleStudentDoc())
	edges := Infer(ix).Edges()
	if len(edges) == 0 {
		t.Fatal("no edges inferred")
	}
	seen := map[string]bool{}
	for i, e := range edges {
		seen[e.Parent+"/"+e.Child] = true
		if i > 0 {
			prev := edges[i-1]
			if prev.Parent > e.Parent || (prev.Parent == e.Parent && prev.Child > e.Child) {
				t.Error("edges not sorted")
			}
		}
	}
	if !seen["Dept/Area"] || !seen["Students/Student"] {
		t.Errorf("edges missing expected pairs: %v", edges)
	}
}

func TestSchemaCategorizationUpgradesSingletonInstances(t *testing.T) {
	ix := build(t, singleStudentDoc())

	// Instance level: the Seminar course (one student) is NOT an entity.
	seminarID := "0.0.1.1.1"
	ord := mustOrd(t, ix, seminarID)
	if ix.CatOf(ord)&index.Entity != 0 {
		t.Fatalf("instance-level Seminar course should not be an entity, got %v", ix.CatOf(ord))
	}

	s := Infer(ix)
	cats := s.Categorize(ix)
	if cats[ord]&index.Entity == 0 {
		t.Errorf("schema-level Seminar course must be an entity, got %v", cats[ord])
	}
	// Its single Student must be Repeating at schema level (not Attribute).
	stOrd := mustOrd(t, ix, "0.0.1.1.1.1.0")
	if cats[stOrd]&index.Repeating == 0 {
		t.Errorf("schema-level singleton Student must be repeating, got %v", cats[stOrd])
	}
	if ix.CatOf(stOrd) != index.Attribute {
		t.Errorf("instance-level singleton Student should be attribute, got %v", ix.CatOf(stOrd))
	}
}

func TestSchemaCategorizationAgreesOnRegularInstances(t *testing.T) {
	// On Figure 2(a) both categorizations agree, except that schema-level
	// classification may add the Repeating flag to singleton instances of
	// schema-repeating labels (the Theory area's single Course).
	ix := build(t, xmltree.BuildFigure2a())
	cats := Infer(ix).Categorize(ix)
	for i := int32(0); i < int32(ix.NodeCount()); i++ {
		inst := ix.CatOf(i)
		if cats[i] != inst && cats[i] != inst|index.Repeating {
			t.Errorf("node %s: schema %v vs instance %v",
				ix.IDOf(i), cats[i], inst)
		}
	}
	// The singleton Course indeed gains the Repeating flag.
	ord := mustOrd(t, ix, "0.0.2.1.0")
	if cats[ord] != index.Entity|index.Repeating {
		t.Errorf("singleton Course schema category = %v, want RN|EN", cats[ord])
	}
}

func TestApply(t *testing.T) {
	ix := build(t, singleStudentDoc())
	before := ix.Stats.EntityNodes
	changed := Apply(ix, Infer(ix).Categorize(ix))
	if changed == 0 {
		t.Fatal("expected category changes")
	}
	if ix.Stats.EntityNodes <= before {
		t.Errorf("entity count should grow: %d -> %d", before, ix.Stats.EntityNodes)
	}
	// Applying again is a no-op.
	if again := Apply(ix, Infer(ix).Categorize(ix)); again != 0 {
		t.Errorf("second apply changed %d nodes", again)
	}
}

func TestSearchAfterSchemaApplyReturnsCourseForSingleton(t *testing.T) {
	ix := build(t, singleStudentDoc())
	eng := core.NewEngine(ix)
	// Instance level: julie's course is not an entity; the response for
	// {julie} is the lifted Area entity (the nearest entity ancestor).
	resp, err := eng.Search(core.NewQuery("julie"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Label != "Area" {
		t.Fatalf("instance-level response = %+v, want Area", resp.Results)
	}

	Apply(ix, Infer(ix).Categorize(ix))
	eng2 := core.NewEngine(ix)
	resp2, err := eng2.Search(core.NewQuery("julie"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Results) != 1 || resp2.Results[0].Label != "Course" {
		t.Fatalf("schema-level response = %+v, want the Seminar Course", resp2.Results)
	}
}

func mustOrd(t *testing.T, ix *index.Index, id string) int32 {
	t.Helper()
	ord, ok := ix.OrdinalOf(mustParse(t, id))
	if !ok {
		t.Fatalf("node %s not found", id)
	}
	return ord
}

func mustParse(t *testing.T, s string) dewey.ID {
	t.Helper()
	return dewey.MustParse(s)
}
