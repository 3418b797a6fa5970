package cli

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAdmitdUsageErrors pins the subcommand surface.
func TestAdmitdUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Admitd(nil, &buf); err == nil {
		t.Fatal("no subcommand must error")
	}
	if err := Admitd([]string{"frobnicate"}, &buf); err == nil {
		t.Fatal("unknown subcommand must error")
	}
	if err := Admitd([]string{"serve", "-bogus"}, &buf); err == nil {
		t.Fatal("bad serve flag must error")
	}
	if err := Admitd([]string{"load"}, &buf); err == nil {
		t.Fatal("load is no subcommand: must error")
	}
}

// TestExpJSON checks the shared sweep serialization behind -json.
func TestExpJSON(t *testing.T) {
	var buf bytes.Buffer
	err := Exp([]string{"-json", "-overheads", "zero", "-tasks", "6", "-sets", "4",
		"-umin", "0.6", "-umax", "0.65", "-ustep", "0.05", "-algs", "ffd"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var sweep struct {
		Series []struct {
			Algorithm string `json:"algorithm"`
		} `json:"series"`
		Admission struct {
			Probes int64 `json:"probes"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sweep); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(sweep.Series) != 1 || sweep.Series[0].Algorithm != "FFD" || sweep.Admission.Probes == 0 {
		t.Fatalf("sweep JSON: %s", buf.String())
	}
}
