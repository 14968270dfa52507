package modelspec

import (
	"encoding/json"
	"os"
)

// Small indirection helpers keeping the test file free of extra imports.

func jsonUnmarshal(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
