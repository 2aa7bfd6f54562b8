package experiments

import (
	"reflect"
	"testing"
)

// TestSpecKeyCoversEveryField is the regression for SpecKey formatting the
// spec through RunSpec.String, which leaves out fields such as Tech: specs
// that differ only there simulate to different cycles and must not share a
// checkpoint or cache entry. Each RunSpec field in turn is set to a non-zero
// value and the key must change, so a field added later cannot fall out of
// the key either.
func TestSpecKeyCoversEveryField(t *testing.T) {
	stt := RunSpec{Bench: "sgemm", N: 16, Design: 1, LLCBytes: 1 << 20, Scale: 16, Tech: "stt"}
	reram := stt
	reram.Tech = "reram"
	if SpecKey(stt) == SpecKey(reram) {
		t.Fatalf("stt and reram specs share the key %q", SpecKey(stt))
	}

	base := SpecKey(RunSpec{})
	typ := reflect.TypeOf(RunSpec{})
	for i := 0; i < typ.NumField(); i++ {
		var spec RunSpec
		f := reflect.ValueOf(&spec).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("field %s: kind %v not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if SpecKey(spec) == base {
			t.Errorf("field %s is not part of SpecKey", typ.Field(i).Name)
		}
	}
}
