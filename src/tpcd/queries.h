#ifndef R3DB_TPCD_QUERIES_H_
#define R3DB_TPCD_QUERIES_H_

#include <memory>
#include <string>

#include "appsys/app_server.h"
#include "common/status.h"
#include "rdbms/db.h"
#include "tpcd/qgen.h"

namespace r3 {
namespace tpcd {

inline constexpr int kNumQueries = 17;

/// One implementation strategy for the 17 TPC-D queries. Four exist:
///
///  * "rdbms"   — standard SQL directly on the original 8-table database
///                (the isolated-RDBMS baseline column of Tables 4/5);
///  * "native"  — EXEC SQL reports over the SAP tables. Release-aware: while
///                KONV is a cluster, the KONV-touching parts run as nested
///                Open SQL loops in the app server (the paper's 2.2G
///                behaviour); once KONV is transparent, everything pushes
///                down (3.0E);
///  * "open22"  — Release 2.2 Open SQL reports: single-table SELECTs or join
///                views, nested SELECT loops, EXTRACT/SORT/LOOP grouping —
///                everything else in the application server;
///  * "open30"  — Release 3.0 Open SQL reports: join + simple-aggregate
///                push-down, manual unnesting of subqueries, client-side
///                only for complex aggregates.
///
/// All four return equivalent result sets for the same QueryParams (the
/// validation harness checks this), modulo row order where the query does
/// not specify one.
class IQuerySet {
 public:
  virtual ~IQuerySet() = default;

  virtual std::string name() const = 0;

  /// Runs query `q` (1..17).
  virtual Result<rdbms::QueryResult> RunQuery(int q, const QueryParams& p) = 0;
};

std::unique_ptr<IQuerySet> MakeRdbmsQuerySet(rdbms::Database* db);

/// The SQL text the "rdbms" set runs for query `q` (1..17). For Q15 this is
/// the revenue aggregation; the set then looks up each top supplier.
Result<std::string> RdbmsQueryText(int q, const QueryParams& p);
std::unique_ptr<IQuerySet> MakeNativeQuerySet(appsys::AppServer* app);
std::unique_ptr<IQuerySet> MakeOpen22QuerySet(appsys::AppServer* app);
std::unique_ptr<IQuerySet> MakeOpen30QuerySet(appsys::AppServer* app);

}  // namespace tpcd
}  // namespace r3

#endif  // R3DB_TPCD_QUERIES_H_
