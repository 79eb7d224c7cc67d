package storage

import (
	"fmt"
	"time"

	"cachecost/internal/rpc"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/raft"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Batched point reads. sql.BatchQuery executes one parameterized SELECT
// template once per bound parameter — the "WHERE k = ?" point-read N
// keys at a time. The batch pays the per-statement overheads ONCE:
// one request decode and parse, one SQL front-end burn, one lease
// validation, one trace statement count, one response frame. Only the
// per-row executor and storage-engine work scales with N — exactly the
// amortization the paper's cost model says batching should buy (§2.3),
// since the front-end work it cannot elide dominates point reads.
//
// The request reuses the QueryRequest shape {1: sql, 2: param...} with
// one parameter per key; the response is a BatchQueryResponse carrying
// one marshaled result set per parameter, positionally aligned.

// BatchQueryResponse is the body of the sql.BatchQuery reply: result
// set i answers parameter i of the request.
type BatchQueryResponse struct {
	Results []*plan.ResultSet
}

// MarshalWire implements wire.Marshaler.
func (r *BatchQueryResponse) MarshalWire(e *wire.Encoder) {
	for _, rs := range r.Results {
		e.Message(1, rs.MarshalWire)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *BatchQueryResponse) UnmarshalWire(d *wire.Decoder) error {
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		if f != 1 {
			if err := d.Skip(t); err != nil {
				return err
			}
			continue
		}
		body, err := d.Bytes()
		if err != nil {
			return err
		}
		rs := &plan.ResultSet{}
		if err := wire.Unmarshal(body, rs); err != nil {
			return err
		}
		r.Results = append(r.Results, rs)
	}
	return nil
}

// BatchQuery runs one SELECT template once per bound parameter,
// returning positionally aligned result sets.
func (c *Client) BatchQuery(src string, params ...sql.Value) ([]*plan.ResultSet, error) {
	return c.BatchQueryCtx(trace.SpanContext{}, src, params)
}

// BatchQueryCtx is BatchQuery carrying the caller's span context. An
// empty parameter list returns without touching the node.
func (c *Client) BatchQueryCtx(sc trace.SpanContext, src string, params []sql.Value) ([]*plan.ResultSet, error) {
	if len(params) == 0 {
		return nil, nil
	}
	if b := sc.Breakdown(); b != nil {
		t0 := time.Now()
		rs, err := c.batchQueryInner(sc, src, params)
		b.Add(trace.StageStorage, time.Since(t0))
		return rs, err
	}
	return c.batchQueryInner(sc, src, params)
}

func (c *Client) batchQueryInner(sc trace.SpanContext, src string, params []sql.Value) ([]*plan.ResultSet, error) {
	e := wire.GetEncoder()
	e.String(1, src)
	for _, p := range params {
		sql.EncodeValue(e, 2, p)
	}
	respBody, err := rpc.CallTraced(c.conn, sc, "sql.BatchQuery", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, err
	}
	resp := &BatchQueryResponse{Results: make([]*plan.ResultSet, 0, len(params))}
	err = wire.Unmarshal(respBody, resp)
	rpc.PutBuffer(respBody) // ResultSet decode copies rows out; buffer is dead
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(params) {
		return nil, fmt.Errorf("storage: BatchQuery returned %d result sets for %d params",
			len(resp.Results), len(params))
	}
	return resp.Results, nil
}

// handleBatchQuery serves sql.BatchQuery on the leader: single parse,
// single front-end burn, single lease validation, then the executor
// runs the pre-parsed statement once per parameter.
func (n *Node) handleBatchQuery(sc trace.SpanContext, req []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// One batch is one statement against the path model: the per-key rows
	// all come from a single parsed plan.
	sc.Tracer().CountStatement()
	defer n.histBatch.ObserveSince(time.Now())

	sqlAct, _ := trace.Start(sc, "storage.sql", "parse")
	w := n.sections.Open(n.sqlComp)
	defer w.Close()
	stmt, q, err := parseRequest(req)
	if err != nil {
		sqlAct.End()
		return nil, err
	}
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		sqlAct.End()
		return nil, fmt.Errorf("storage: sql.BatchQuery only accepts SELECT")
	}
	if len(q.Params) == 0 {
		sqlAct.End()
		return nil, fmt.Errorf("storage: sql.BatchQuery needs at least one parameter")
	}
	n.burnFrontend()
	sqlAct.AnnotateInt("batch.keys", int64(len(q.Params)))
	sqlAct.SetBytes(len(req), 0)
	sqlAct.End()
	w.Next(n.execComp)
	if err := n.group.ValidateLeaseCtx(sc); err != nil {
		return nil, err
	}
	db := n.LeaderDB()
	if db == nil {
		return nil, raft.ErrNotLeader
	}
	results := make([]*plan.ResultSet, len(q.Params))
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	execErr := func() error {
		param := make([]sql.Value, 1)
		for i, p := range q.Params {
			param[0] = p
			rs, e := db.Exec(stmt, param)
			if e != nil {
				return e
			}
			results[i] = rs
		}
		return nil
	}()
	kvAct.AnnotateInt("batch.keys", int64(len(q.Params)))
	kvAct.End()
	if execErr != nil {
		return nil, execErr
	}
	w.Next(n.sqlComp)
	e := wire.GetEncoder()
	(&BatchQueryResponse{Results: results}).MarshalWire(e)
	out := append([]byte(nil), e.Bytes()...)
	wire.PutEncoder(e)
	return out, nil
}
