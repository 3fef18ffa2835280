#include "appsys/connection.h"

namespace r3 {
namespace appsys {
namespace {

// Bind fingerprint for the SQL trace's identical-select detection: the
// parameter renderings '\x1f'-joined (a character that cannot appear in a
// rendered value).
std::string JoinBinds(const std::vector<rdbms::Value>& params) {
  std::string out;
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += '\x1f';
    out += params[i].ToString();
  }
  return out;
}

}  // namespace

DbConnection::Call DbConnection::BeginCall(const char* span_name) {
  Call call{TraceSpan(clock_, "interface", span_name), clock_->NowMicros(),
            sql_trace_ != nullptr ? m_bp_physical_reads_->Value() : 0};
  ++stats_.round_trips;
  m_round_trips_->Add(1);
  clock_->ChargeRoundTrip();
  return call;
}

void DbConnection::FinishCall(const Call& call, const std::string& sql,
                              const std::vector<rdbms::Value>& params,
                              SqlTraceEvent e) {
  int64_t dur_us = clock_->NowMicros() - call.start_us;
  if (workload_monitor_ != nullptr) {
    workload_monitor_->AddDbRequestTime(dur_us);
  }
  if (sql_trace_ != nullptr) {
    e.sql = sql;
    e.binds = JoinBinds(params);
    e.sim_start_us = call.start_us;
    e.db_us = dur_us;
    e.physical_reads = m_bp_physical_reads_->Value() - call.phys_before;
    sql_trace_->RecordEvent(std::move(e));
  }
}

void DbConnection::ChargeShipment(int64_t rows) {
  stats_.rows_shipped += rows;
  m_rows_shipped_->Add(rows);
  clock_->ChargeTupleShip(rows);
}

Result<rdbms::QueryResult> DbConnection::ExecuteSql(
    const std::string& sql, const std::vector<rdbms::Value>& params) {
  Call call = BeginCall("db_call.exec_sql");
  R3_ASSIGN_OR_RETURN(rdbms::QueryResult result, db_->Query(sql, params));
  const int64_t rows = static_cast<int64_t>(result.rows.size());
  ChargeShipment(rows);
  call.span.ArgInt("rows_shipped", rows);
  SqlTraceEvent e;
  e.interface_kind = SqlInterface::kNativeSql;
  e.rows = rows;
  FinishCall(call, sql, params, std::move(e));
  return result;
}

Result<rdbms::QueryResult> DbConnection::ExecuteCursor(
    const std::string& sql, const std::vector<rdbms::Value>& params) {
  Call call = BeginCall("db_call.cursor");
  rdbms::Database::BindPeekInfo peek;
  R3_ASSIGN_OR_RETURN(rdbms::PreparedStatement * stmt,
                      db_->PrepareWithParams(sql, params, &peek));
  // With bind peeking on, the cursor cache holds one entry per plan variant:
  // landing in a new selectivity bucket is a miss (new cursor compiled),
  // re-execution within a known bucket is a hit.
  std::string cursor_key =
      peek.peeked ? sql + '\x1f' + static_cast<char>('0' + peek.bucket) : sql;
  const bool cursor_hit = !seen_statements_.insert(cursor_key).second;
  if (cursor_hit) {
    ++stats_.cursor_cache_hits;
    m_cursor_hits_->Add(1);
  } else {
    ++stats_.cursor_cache_misses;
    m_cursor_misses_->Add(1);
  }
  if (peek.peeked) call.span.ArgInt("peek_bucket", peek.bucket);
  R3_ASSIGN_OR_RETURN(rdbms::Cursor cur, db_->OpenCursor(stmt, params));
  rdbms::QueryResult result;
  result.schema = stmt->output_schema();
  result.column_names = stmt->column_names();
  rdbms::RowBatch batch(db_->batch_rows());
  int64_t fetches = 0;
  while (true) {
    R3_ASSIGN_OR_RETURN(bool ok, cur.FetchBatch(&batch));
    if (!ok) break;
    ++fetches;
    // The ship charge is per tuple crossing the interface; batching the
    // fetch amortizes the call, not the per-tuple cost.
    ChargeShipment(static_cast<int64_t>(batch.size()));
    for (size_t i = 0; i < batch.size(); ++i) {
      result.rows.push_back(std::move(batch.row(i)));
    }
  }
  R3_RETURN_IF_ERROR(cur.Close());
  const int64_t rows = static_cast<int64_t>(result.rows.size());
  call.span.ArgInt("rows_shipped", rows);
  SqlTraceEvent e;
  e.interface_kind = SqlInterface::kOpenSql;
  e.rows = rows;
  e.fetches = fetches;
  e.cursor = cursor_hit ? 1 : 0;
  e.peeked = peek.peeked;
  e.bucket = peek.peeked ? peek.bucket : -1;
  FinishCall(call, sql, params, std::move(e));
  return result;
}

Status DbConnection::ExecuteDml(const std::string& sql,
                                const std::vector<rdbms::Value>& params,
                                int64_t* affected_rows) {
  Call call = BeginCall("db_call.dml");
  int64_t affected = 0;
  Status st = db_->Execute(sql, params, nullptr, &affected);
  if (affected_rows != nullptr) *affected_rows = affected;
  R3_RETURN_IF_ERROR(st);
  SqlTraceEvent e;
  e.interface_kind = SqlInterface::kDml;
  e.rows = affected;
  FinishCall(call, sql, params, std::move(e));
  return Status::OK();
}

}  // namespace appsys
}  // namespace r3
