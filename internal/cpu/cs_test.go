package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"vax780/internal/ucode"
)

// TestMicrowordHandlesDefined walks the uw handle struct and fails on any
// handle still at address 0, the reserved control-store location: a
// handle left out of the uw literal (or of a builder like defSpecBank)
// would silently count every cycle it names into that location. A
// handle's Go type must also be ibStallWord exactly when its class is
// ClassIBStall, so that only ibWait counts IB-stall words and it counts
// nothing else.
func TestMicrowordHandlesDefined(t *testing.T) {
	stallType := reflect.TypeOf(ibStallWord(0))
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Uint16:
			if v.Uint() == 0 {
				t.Errorf("microword handle %s is never defined: it stays at the reserved address 0", path)
			}
			w := CS.Word(uint16(v.Uint()))
			if isStall := v.Type() == stallType; isStall != (w.Class == ucode.ClassIBStall) {
				t.Errorf("microword handle %s (%s, %s class) has Go type %s", path, w.Name, w.Class, v.Type())
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
