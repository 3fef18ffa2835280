#ifndef R3DB_APPSYS_DISPATCH_WORK_PROCESS_H_
#define R3DB_APPSYS_DISPATCH_WORK_PROCESS_H_

#include <map>
#include <memory>
#include <string>

#include "appsys/connection.h"
#include "appsys/dispatch/request.h"
#include "appsys/open_sql.h"
#include "appsys/sql_trace.h"
#include "rdbms/session_pool.h"

namespace r3 {
namespace appsys {
namespace dispatch {

/// One R/3 work process: a class-typed executor slot with its *own* database
/// session (leased from the RDBMS session pool), its own DbConnection — and
/// therefore its own cursor cache — and optionally its own ST05 trace. The
/// per-WP cursor cache is faithful to R/3 (each work process keeps private
/// open cursors against its shadow process) and is why a landscape-wide
/// ST05 needs SqlTrace::Combine().
struct WorkProcess {
  int32_t id = 0;
  WpClass wp_class = WpClass::kDialog;

  rdbms::SessionPool::Lease session;
  std::unique_ptr<DbConnection> conn;
  std::unique_ptr<SqlTrace> trace;  ///< non-null when ST05 is enabled
  /// One Open SQL interface per client (MANDT) that ever ran on this WP —
  /// the interface object carries the session client for predicate
  /// injection, so multi-tenant routing needs one per tenant.
  std::map<std::string, std::unique_ptr<OpenSql>> open_sql_by_client;

  // -- Scheduling state (virtual timeline, maintained by the dispatcher) ----
  bool busy = false;
  int64_t busy_us = 0;  ///< accumulated service time (utilization numerator)
  int64_t steps = 0;    ///< dialog steps executed
};

}  // namespace dispatch
}  // namespace appsys
}  // namespace r3

#endif  // R3DB_APPSYS_DISPATCH_WORK_PROCESS_H_
