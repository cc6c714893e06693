package api

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestRoutesCoverTheInterface: every DeploymentService method has
// exactly one row in the table, and every row names a method.
func TestRoutesCoverTheInterface(t *testing.T) {
	iface := reflect.TypeOf((*DeploymentService)(nil)).Elem()
	rows := make(map[string]int, len(Routes))
	for _, rt := range Routes {
		rows[rt.Name]++
		if _, ok := iface.MethodByName(rt.Name); !ok {
			t.Errorf("route %s %s names %q, which is not a DeploymentService method", rt.Verb, rt.Path, rt.Name)
		}
	}
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; rows[name] != 1 {
			t.Errorf("DeploymentService.%s has %d routes, want exactly 1", name, rows[name])
		}
	}
	stub := reflect.TypeOf(Stub{})
	if stub.NumMethod() != iface.NumMethod()+1 { // + the promoted Invoke
		t.Errorf("Stub has %d methods, want the interface's %d plus Invoke", stub.NumMethod(), iface.NumMethod())
	}
}

// TestRoutesMatchTheWireContract ties the table to the literals pinned
// in wire_test.go, so a row edited away from the contract fails here
// with the row named, not only as a transport mismatch.
func TestRoutesMatchTheWireContract(t *testing.T) {
	wildcard := regexp.MustCompile(`\\\{[a-z]+\\\}`)
	for _, tc := range wireCases {
		rt := RouteOf(tc.method)
		if rt == nil {
			t.Errorf("%s: no route", tc.method)
			continue
		}
		uri := regexp.MustCompile("^" + wildcard.ReplaceAllString(regexp.QuoteMeta(rt.Path), `[^/?]+`) + `(\?.*)?$`)
		if rt.Verb != tc.verb || rt.Status != tc.status || !uri.MatchString(tc.uri) {
			t.Errorf("%s: table says %s %s -> %d, contract says %s %s -> %d", tc.method, rt.Verb, rt.Path, rt.Status, tc.verb, tc.uri, tc.status)
		}
	}
	// The table's own consistency: keyed rows are exactly the requests
	// with an IdempotencyKey field, Owner rows all have a routing key.
	for _, rt := range Routes {
		arg := reflect.TypeOf(wireCaseOf(rt.Name).arg)
		hasKey := false
		if arg != nil && arg.Kind() == reflect.Struct {
			_, hasKey = arg.FieldByName("IdempotencyKey")
		}
		if rt.Keyed != hasKey {
			t.Errorf("%s: Keyed = %v but request type %v has key field = %v", rt.Name, rt.Keyed, arg, hasKey)
		}
		if (rt.Class == Owner) != (rt.vehicles != nil) {
			t.Errorf("%s: class %d but owner column set = %v", rt.Name, rt.Class, rt.vehicles != nil)
		}
		if !strings.HasPrefix(rt.Path, "/v1/") {
			t.Errorf("%s: path %q outside /v1", rt.Name, rt.Path)
		}
	}
}

func wireCaseOf(method string) wireCase {
	for _, tc := range wireCases {
		if tc.method == method {
			return tc
		}
	}
	return wireCase{}
}
