package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/solver"
)

// Key returns the cache identity of a configuration: the SHA-256 of its
// canonical form. Two configs that Canonical maps onto the same
// normalized run share a key — and therefore a cache line — however
// they were spelled (implied defaults, halo-policy aliases,
// scenario-pinned physics).
func Key(c core.Config) (string, error) {
	cc, err := c.Canonical()
	if err != nil {
		return "", err
	}
	return keyOf(cc), nil
}

// keyField is one leaf of the key's field plan: the reflect path from a
// core.Config to a scalar, and the name it is hashed under.
type keyField struct {
	name  string
	index []int
}

// keyPlan flattens core.Config — and the jet.Config it points to — into
// its scalar leaves, once. The key is derived from the struct
// definitions, so a field added to either struct is key material the
// moment it exists; a field of a kind the encoder below cannot spell
// panics here, at start-up, instead of silently dropping out of the
// identity.
var keyPlan = planFields(reflect.TypeOf(core.Config{}), "", nil)

func planFields(t reflect.Type, prefix string, path []int) []keyField {
	var plan []keyField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, index := prefix+f.Name, append(path[:len(path):len(path)], i)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch ft.Kind() {
		case reflect.Struct:
			plan = append(plan, planFields(ft, name+".", index)...)
		case reflect.Int, reflect.Bool, reflect.Float64, reflect.String:
			plan = append(plan, keyField{name: name, index: index})
		default:
			panic(fmt.Sprintf("serve: core.Config field %s has kind %s, which the cache key cannot encode", name, ft.Kind()))
		}
	}
	return plan
}

// keyOf hashes an already-canonical config (Jet resolved, so the walk
// never meets a nil pointer). Every leaf is written as name=value;
// floats by their IEEE-754 bits — the cache promises bitwise-identical
// results, so two tolerances that differ in the last ulp are two
// different runs — and strings quoted, so no value can imitate a
// neighbouring field.
func keyOf(c core.Config) string {
	v := reflect.ValueOf(c)
	b := make([]byte, 0, 1024)
	for _, f := range keyPlan {
		b = append(append(b, f.name...), '=')
		switch fv := v.FieldByIndex(f.index); fv.Kind() {
		case reflect.Int:
			b = strconv.AppendInt(b, fv.Int(), 10)
		case reflect.Bool:
			b = strconv.AppendBool(b, fv.Bool())
		case reflect.Float64:
			b = strconv.AppendUint(b, math.Float64bits(fv.Float()), 16)
		case reflect.String:
			b = strconv.AppendQuote(b, fv.String())
		}
		b = append(b, '|')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// copyResult returns a private deep copy of r: Submit hands callers
// state they may mutate freely without corrupting the cached original.
func copyResult(r *core.Result) *core.Result {
	out := *r
	out.Residuals = append([]solver.ResidualPoint(nil), r.Residuals...)
	out.PerRank = append([]par.RankStats(nil), r.PerRank...)
	if r.Momentum != nil {
		m := make([][]float64, len(r.Momentum))
		for i := range m {
			m[i] = append([]float64(nil), r.Momentum[i]...)
		}
		out.Momentum = m
	}
	return &out
}
