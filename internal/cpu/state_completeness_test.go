package cpu

import (
	"reflect"
	"testing"
)

// TestIBStateCompleteness checks that every ibox field either travels in
// IBState or carries a justified exemption. The round trip in
// internal/checkpoint also reaches the ibox, through Machine.ib; this
// table names the IBState field each ibox field travels in, so a failure
// here points at the missing mapping directly.
func TestIBStateCompleteness(t *testing.T) {
	captured := map[string]string{
		"ptr":           "IBState.Ptr",
		"valid":         "IBState.Valid",
		"fillPending":   "IBState.FillPending",
		"fillDone":      "IBState.FillDone",
		"fillBytes":     "IBState.FillBytes",
		"tbMissPending": "IBState.TBMissPending",
		"tbMissVA":      "IBState.TBMissVA",
		"advanced":      "IBState.Advanced",
		"stats":         "IBState.Stats",
	}
	exempt := map[string]string{
		"m":       "wiring to the owning machine",
		"scratch": "transient decode buffer; its contents never outlive one peek/consume",
	}
	typ := reflect.TypeOf(ibox{})
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range captured {
		if !fields[name] {
			t.Errorf("captured table names unknown ibox field %q", name)
		}
		if _, both := exempt[name]; both {
			t.Errorf("ibox field %q is both captured and exempted", name)
		}
	}
	for name := range exempt {
		if !fields[name] {
			t.Errorf("exemption table names unknown ibox field %q", name)
		}
	}
	for name := range fields {
		if captured[name] == "" && exempt[name] == "" {
			t.Errorf("ibox field %q is neither captured in IBState nor exempted", name)
		}
	}
}
