package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is the typed Go client of the deployment service. It wraps any
// DeploymentService — the HTTP transport against a /v1 server, or a
// local implementation for in-process callers — and adds conveniences
// such as operation polling. The embedded interface makes Client
// itself satisfy DeploymentService, so code written against the
// interface runs unchanged on either side of the wire.
type Client struct {
	DeploymentService
}

// NewClient builds a client speaking HTTP/JSON against the /v1 surface
// at baseURL. A nil httpc uses http.DefaultClient.
func NewClient(baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{DeploymentService: Stub{&httpTransport{base: strings.TrimRight(baseURL, "/"), hc: httpc}}}
}

// NewLocalClient wraps an in-process service implementation.
func NewLocalClient(svc DeploymentService) *Client { return &Client{DeploymentService: svc} }

var _ DeploymentService = (*Client)(nil)

// WaitOperation polls an operation until it reaches a terminal state or
// the context expires. interval <= 0 uses a 50ms default.
func (c *Client) WaitOperation(ctx context.Context, id string, interval time.Duration) (Operation, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		op, err := c.GetOperation(ctx, id)
		if err != nil {
			return op, err
		}
		if op.Done {
			return op, nil
		}
		select {
		case <-ctx.Done():
			return op, Errorf(CodeUnavailable, "api: waiting for %s: %v", id, ctx.Err())
		case <-t.C:
		}
	}
}

// httpTransport carries out routes over the /v1 wire protocol.
type httpTransport struct {
	base string
	hc   *http.Client
}

func (t *httpTransport) Invoke(ctx context.Context, rt *Route, arg any) (any, error) {
	uri, body := rt.request(arg)
	return rt.response(func(out any) error { return t.do(ctx, rt.Verb, uri, body, out) })
}

func (t *httpTransport) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return Errorf(CodeInvalidArgument, "api: encoding request: %v", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, body)
	if err != nil {
		return Errorf(CodeInvalidArgument, "api: building request: %v", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return Errorf(CodeUnavailable, "api: %s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return Errorf(CodeInternal, "api: decoding %s %s response: %v", method, path, err)
		}
	}
	return nil
}

// decodeError recovers the structured error from a failed response,
// falling back to the status line for foreign bodies.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env errorBody
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		return env.Error
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = resp.Status
	}
	return &Error{Code: CodeFromHTTPStatus(resp.StatusCode), Message: fmt.Sprintf("api: %s", msg)}
}

func pageQuery(page Page) string {
	q := url.Values{}
	if page.Size > 0 {
		q.Set("pageSize", strconv.Itoa(page.Size))
	}
	if page.Token != "" {
		q.Set("pageToken", page.Token)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}
