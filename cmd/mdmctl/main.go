// Command mdmctl is a CLI client for the mdmd REST service: the steward
// and analyst interactions of paper §2 from the terminal.
//
// Usage:
//
//	mdmctl [-server http://localhost:8085] <command> [args]
//
// Commands:
//
//	stats                              ontology statistics
//	validate                           run integrity checks
//	render global|source|mappings      Figure 5/6/7 renderings
//	export                             dump the ontology as TriG
//	prefix  <prefix> <namespace>       bind a prefix
//	concept <iri> [label]              declare a concept
//	feature <iri> [label]              declare a feature
//	attach  <concept> <feature>        attach a feature to its concept
//	id      <feature>                  mark a feature as identifier
//	relate  <from> <property> <to>     relate two concepts
//	source  <id> [label]               declare a data source
//	wrapper <name> <source> <url> [from=to ...]   register an HTTP wrapper
//	wrappers                           list wrappers
//	releases                           show the release log
//	drift   <wrapper>                  probe a wrapper for schema drift
//	mapping <file.json>                define a LAV mapping from JSON
//	suggest <newWrapper> <fromWrapper> print a suggested mapping as JSON
//	query   [flags] <file.json>        run a walk from JSON
//	walks                              list saved walks
//	run     [flags] <walk>             run a saved walk by name
//	sparql  [flags] <query>            run SPARQL over the metadata
//	explain <query>                    run a metadata SPARQL query and
//	                                   print its execution report (stage
//	                                   timings, per-operator spans, plan
//	                                   summary) instead of rows
//	compact                            run storage maintenance now (seal
//	                                   the log tail; rewrite when due)
//
// query, run and sparql accept paging/streaming flags, mapped to the
// REST query parameters:
//
//	-limit N    page size (pushed into evaluation — for walks, into the
//	            streaming federated pipeline)
//	-offset N   rows to skip (the cursor position)
//	-ndjson     stream NDJSON rows to stdout as the server produces them
//	-partial    (query and run) accept a degraded answer when a source
//	            is down: healthy sources' rows are returned and a
//	            warning naming the missing_sources annotation is
//	            printed to stderr. Without it a walk is strict: the
//	            server has no degraded default.
//
// The JSON formats of mapping and query match the REST API bodies
// (POST /api/mappings and POST /api/query).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
)

func main() {
	args := os.Args[1:]
	server := "http://localhost:8085"
	if len(args) >= 2 && args[0] == "-server" {
		server = args[1]
		args = args[2:]
	}
	if len(args) == 0 {
		fail("missing command; see -h in source docs")
	}
	c := &client{base: server}
	if err := c.run(args[0], args[1:]); err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "mdmctl:", msg)
	os.Exit(1)
}

type client struct{ base string }

func (c *client) run(cmd string, args []string) error {
	switch cmd {
	case "stats":
		return c.getJSON("/api/stats")
	case "validate":
		return c.getJSON("/api/validate")
	case "render":
		if len(args) != 1 {
			return fmt.Errorf("render needs global|source|mappings")
		}
		return c.getText("/api/render/" + args[0])
	case "export":
		return c.getRaw("/api/export")
	case "prefix":
		if len(args) != 2 {
			return fmt.Errorf("prefix <prefix> <namespace>")
		}
		return c.post("/api/prefixes", map[string]string{"prefix": args[0], "namespace": args[1]})
	case "concept", "feature":
		if len(args) < 1 {
			return fmt.Errorf("%s <iri> [label]", cmd)
		}
		label := ""
		if len(args) > 1 {
			label = args[1]
		}
		return c.post("/api/global/"+cmd+"s", map[string]string{"iri": args[0], "label": label})
	case "attach":
		if len(args) != 2 {
			return fmt.Errorf("attach <concept> <feature>")
		}
		return c.post("/api/global/attach", map[string]string{"concept": args[0], "feature": args[1]})
	case "id":
		if len(args) != 1 {
			return fmt.Errorf("id <feature>")
		}
		return c.post("/api/global/identifiers", map[string]string{"feature": args[0]})
	case "relate":
		if len(args) != 3 {
			return fmt.Errorf("relate <from> <property> <to>")
		}
		return c.post("/api/global/relations",
			map[string]string{"from": args[0], "property": args[1], "to": args[2]})
	case "source":
		if len(args) < 1 {
			return fmt.Errorf("source <id> [label]")
		}
		label := ""
		if len(args) > 1 {
			label = args[1]
		}
		return c.post("/api/sources", map[string]string{"id": args[0], "label": label})
	case "wrapper":
		if len(args) < 3 {
			return fmt.Errorf("wrapper <name> <source> <url> [from=to ...]")
		}
		renames := map[string]string{}
		for _, kv := range args[3:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad rename %q (want from=to)", kv)
			}
			renames[parts[0]] = parts[1]
		}
		body := map[string]any{"name": args[0], "source": args[1], "url": args[2]}
		if len(renames) > 0 {
			body["renames"] = renames
		}
		return c.post("/api/wrappers", body)
	case "wrappers":
		return c.getJSON("/api/wrappers")
	case "releases":
		return c.getJSON("/api/releases")
	case "drift":
		if len(args) != 1 {
			return fmt.Errorf("drift <wrapper>")
		}
		return c.getJSON("/api/drift/" + args[0])
	case "mapping":
		if len(args) != 1 {
			return fmt.Errorf("mapping <file.json>")
		}
		return c.postFile("/api/mappings", args[0])
	case "suggest":
		if len(args) != 2 {
			return fmt.Errorf("suggest <newWrapper> <fromWrapper>")
		}
		return c.getJSON("/api/mappings/" + args[0] + "/suggest?from=" + args[1])
	case "query":
		params, rest, err := pageFlags(args)
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("query [-limit N] [-offset N] [-ndjson] [-partial] <file.json>")
		}
		return c.postFile("/api/query"+params, rest[0])
	case "walks":
		return c.getJSON("/api/walks")
	case "run":
		params, rest, err := pageFlags(args)
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("run [-limit N] [-offset N] [-ndjson] [-partial] <walk>")
		}
		return c.post("/api/walks/"+url.PathEscape(rest[0])+"/run"+params, map[string]string{})
	case "sparql":
		params, rest, err := pageFlags(args)
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("sparql [-limit N] [-offset N] [-ndjson] <query>")
		}
		return c.post("/api/sparql"+params, map[string]string{"query": rest[0]})
	case "explain":
		if len(args) != 1 {
			return fmt.Errorf("explain <query>")
		}
		return c.post("/api/sparql?explain=1", map[string]string{"query": args[0]})
	case "compact":
		return c.post("/api/admin/compact", map[string]string{})
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// pageFlags strips -limit/-offset/-ndjson from the front of args and
// returns them encoded as REST query parameters plus the remaining
// arguments.
func pageFlags(args []string) (params string, rest []string, err error) {
	q := url.Values{}
	for len(args) > 0 {
		switch args[0] {
		case "-limit", "-offset":
			if len(args) < 2 {
				return "", nil, fmt.Errorf("%s needs a number", args[0])
			}
			if _, err := strconv.Atoi(args[1]); err != nil {
				return "", nil, fmt.Errorf("%s %q: not a number", args[0], args[1])
			}
			q.Set(strings.TrimPrefix(args[0], "-"), args[1])
			args = args[2:]
		case "-ndjson":
			q.Set("format", "ndjson")
			args = args[1:]
		case "-partial":
			q.Set("partial", "1")
			args = args[1:]
		default:
			if strings.HasPrefix(args[0], "-") {
				return "", nil, fmt.Errorf("unknown flag %q", args[0])
			}
			if len(q) > 0 {
				params = "?" + q.Encode()
			}
			return params, args, nil
		}
	}
	if len(q) > 0 {
		params = "?" + q.Encode()
	}
	return params, args, nil
}

func (c *client) getJSON(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return pretty(resp.Body, resp.StatusCode)
}

func (c *client) getText(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Text  string `json:"text"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("%s", out.Error)
	}
	fmt.Print(out.Text)
	return nil
}

func (c *client) getRaw(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func (c *client) post(path string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.postBytes(path, b)
}

func (c *client) postFile(path, file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	return c.postBytes(path, data)
}

// postBytes sends a JSON body and prints the answer: NDJSON streams to
// stdout as it arrives, anything else is pretty-printed.
func (c *client) postBytes(path string, body []byte) error {
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	warnPartial(resp)
	if isNDJSON(resp) {
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}
	return pretty(resp.Body, resp.StatusCode)
}

// warnPartial flags a degraded answer on stderr so scripts piping
// stdout still see the completeness loss (details are in the body's
// missing_sources annotation).
func warnPartial(resp *http.Response) {
	if resp.Header.Get("X-MDM-Partial") == "true" {
		fmt.Fprintln(os.Stderr, "mdmctl: warning: partial result — some sources missing (see missing_sources)")
	}
}

// isNDJSON reports a streaming response; rows are copied to stdout as
// they arrive instead of being buffered for pretty-printing.
func isNDJSON(resp *http.Response) bool {
	return resp.Header.Get("Content-Type") == "application/x-ndjson"
}

// pretty re-indents the JSON response; table-shaped query answers render
// as aligned text.
func pretty(r io.Reader, status int) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err == nil {
		if errMsg, ok := generic["error"].(string); ok && errMsg != "" {
			return fmt.Errorf("server (%d): %s", status, errMsg)
		}
		if cols, ok := generic["columns"].([]any); ok {
			if rows, ok := generic["rows"].([]any); ok {
				printTable(cols, rows)
				if sparqlText, ok := generic["sparql"].(string); ok {
					fmt.Println("\n-- SPARQL --")
					fmt.Println(sparqlText)
				}
				if alg, ok := generic["algebra"].([]any); ok {
					fmt.Println("-- Relational algebra --")
					for _, a := range alg {
						fmt.Println(" ", a)
					}
				}
				return nil
			}
		}
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		fmt.Println(string(data))
		return nil
	}
	fmt.Println(buf.String())
	return nil
}

func printTable(cols, rows []any) {
	widths := make([]int, len(cols))
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = fmt.Sprint(c)
		widths[i] = len(header[i])
	}
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		row := r.([]any)
		cells[ri] = make([]string, len(row))
		for i, cell := range row {
			cells[ri][i] = fmt.Sprint(cell)
			if i < len(widths) && len(cells[ri][i]) > widths[i] {
				widths[i] = len(cells[ri][i])
			}
		}
	}
	for i, h := range header {
		fmt.Printf("%-*s  ", widths[i], h)
	}
	fmt.Println()
	for i := range header {
		fmt.Print(strings.Repeat("-", widths[i]) + "  ")
	}
	fmt.Println()
	for _, row := range cells {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Printf("%-*s  ", widths[i], cell)
			}
		}
		fmt.Println()
	}
}
