package cpu

import (
	"fmt"
	"reflect"
	"testing"
)

// TestMicrowordHandlesDefined walks the uw handle struct and fails on any
// handle still at address 0, the reserved control-store location: a
// handle left out of the uw literal (or of a builder like defSpecBank)
// would silently count every cycle it names into that location.
func TestMicrowordHandlesDefined(t *testing.T) {
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Uint16:
			if v.Uint() == 0 {
				t.Errorf("microword handle %s is never defined: it stays at the reserved address 0", path)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		default:
			t.Errorf("microword handle %s has unexpected type %s", path, v.Type())
		}
	}
	walk(reflect.ValueOf(uw), "uw")
}
