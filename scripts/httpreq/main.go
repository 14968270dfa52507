// Command httpreq is the smoke scripts' one HTTP client, so they need
// nothing beyond the go toolchain: GET a URL, or POST it a JSON body when
// one is named (a file, or - for stdin); copy the response body to stdout,
// exit non-zero on transport errors or non-2xx statuses.
//
//	go run ./scripts/httpreq http://127.0.0.1:8080/metrics
//	go run ./scripts/httpreq http://127.0.0.1:8080/v1/optimize req.json
//	echo '{...}' | go run ./scripts/httpreq http://127.0.0.1:8080/v1/optimize -
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: httpreq <url> [body-file|-]")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "httpreq: %v\n", err)
		os.Exit(1)
	}
}

func run(url string, body []string) error {
	c := &http.Client{Timeout: 60 * time.Second}
	var resp *http.Response
	var err error
	if len(body) == 0 {
		resp, err = c.Get(url)
	} else {
		var doc []byte
		if body[0] == "-" {
			doc, err = io.ReadAll(os.Stdin)
		} else {
			doc, err = os.ReadFile(body[0])
		}
		if err == nil {
			resp, err = c.Post(url, "application/json", bytes.NewReader(doc))
		}
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}
