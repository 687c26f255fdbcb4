package policy

import (
	"strings"
	"testing"
)

// FuzzLoadTable: arbitrary bytes must never panic the loader, and any
// table that loads must round-trip through Save.
func FuzzLoadTable(f *testing.F) {
	f.Add(`{"allowIdle":true,"safe":{"1":[2,3]}}`)
	f.Add(`{"safe":{}}`)
	f.Add(`junk`)
	f.Add(`{"safe":{"notanumber":[1]}}`)
	f.Add(`{"allowIdle":true,"safe":{"1":[2]},"manual":[[4,2],[0,1]]}`)
	f.Fuzz(func(t *testing.T, data string) {
		tab, err := LoadTable(strings.NewReader(data))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := tab.Save(&out); err != nil {
			t.Fatalf("loaded table failed to save: %v", err)
		}
		again, err := LoadTable(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("saved table failed to reload: %v", err)
		}
		if again.Len() != tab.Len() || again.AllowIdle() != tab.AllowIdle() {
			t.Fatalf("round trip changed the table: %d/%v vs %d/%v",
				again.Len(), again.AllowIdle(), tab.Len(), tab.AllowIdle())
		}
		var resaved strings.Builder
		if err := again.Save(&resaved); err != nil {
			t.Fatalf("reloaded table failed to save: %v", err)
		}
		if resaved.String() != out.String() {
			t.Fatalf("round trip changed the serialized table:\n%s\n%s", out.String(), resaved.String())
		}
	})
}
