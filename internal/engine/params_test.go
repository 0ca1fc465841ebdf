package engine

import (
	"math/rand"
	"testing"

	"gqs/internal/graph"
	"gqs/internal/value"
)

func TestExecuteParams(t *testing.T) {
	e := NewReference()
	mustRun(t, e, `CREATE (:X {k: 1}), (:X {k: 2})`)
	res, err := e.ExecuteParams(`MATCH (n:X) WHERE n.k = $want RETURN n.k AS k`,
		map[string]value.Value{"want": value.Int(2)})
	if err != nil || res.Len() != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("params: %v %v", res, err)
	}
	// Unbound parameter errors.
	if _, err := e.Execute(`RETURN $missing`); err == nil {
		t.Error("unbound parameter must error")
	}
	// Parameters do not leak across executions.
	if _, err := e.Execute(`RETURN $want`); err == nil {
		t.Error("parameter leaked across executions")
	}
}

func TestSchemaEnforcement(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 5, MaxRels: 8})
	strict := New(Options{Dialect: Dialect{Name: "kuzu-like", EnforceSchema: true}})
	strict.LoadGraph(g, schema)

	// k0 is declared INTEGER by the generator (index % 5).
	if _, err := strict.Execute(`MATCH (n) SET n.k0 = 'not an int'`); err == nil {
		t.Error("type-violating SET must error under schema enforcement")
	}
	if _, err := strict.Execute(`MATCH (n) SET n.k0 = 42`); err != nil {
		t.Errorf("type-correct SET must pass: %v", err)
	}
	if _, err := strict.Execute(`MATCH (n) SET n.undeclared = 1`); err == nil {
		t.Error("undeclared property must error under schema enforcement")
	}
	// SET to null (removal) is always allowed.
	if _, err := strict.Execute(`MATCH (n) SET n.k0 = null`); err != nil {
		t.Errorf("null SET must pass: %v", err)
	}

	// The lax reference dialect accepts everything.
	lax := NewReference()
	lax.LoadGraph(g, schema)
	if _, err := lax.Execute(`MATCH (n) SET n.k0 = 'whatever'`); err != nil {
		t.Errorf("reference dialect must not enforce the schema: %v", err)
	}
}
