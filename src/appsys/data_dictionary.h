#ifndef R3DB_APPSYS_DATA_DICTIONARY_H_
#define R3DB_APPSYS_DATA_DICTIONARY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "appsys/release.h"
#include "common/status.h"
#include "rdbms/db.h"

namespace r3 {
namespace appsys {

/// How a logical application table maps onto the RDBMS (Section 2.2 of the
/// paper).
enum class TableKind {
  /// 1:1 onto an identically named RDBMS table; visible to Native SQL.
  kTransparent,
  /// Several pool tables bundle into one physical pool: every logical tuple
  /// becomes one (TABNAME, VARKEY, VARDATA) tuple. Encapsulated.
  kPool,
  /// Logically related tuples bundle into *one* physical tuple per cluster
  /// key (compact, unpadded blob). Encapsulated.
  kCluster,
};

/// One condition of an encapsulated-table read (a tiny subset of SQL that
/// the dictionary decode path can evaluate itself).
struct DictCond {
  std::string column;
  rdbms::CmpOp op = rdbms::CmpOp::kEq;
  rdbms::Value value;
};

/// A logical application table.
struct LogicalTable {
  std::string name;
  TableKind kind = TableKind::kTransparent;
  rdbms::Schema schema;                ///< logical columns (MANDT first)
  std::vector<std::string> key_columns;  ///< logical primary key
  std::string physical_table;  ///< pool/cluster physical table; == name when
                               ///< transparent
  size_t cluster_key_count = 0;  ///< cluster: key prefix that identifies the
                                 ///< physical bundle (includes MANDT)
  bool is_view = false;  ///< a read-only join view over transparent tables
};

/// The application system's own catalog of logical tables. All meta data is
/// itself stored in the database (table DD02L), like the real system.
class DataDictionary {
 public:
  explicit DataDictionary(rdbms::Database* db);

  /// Creates the dictionary's own backing table.
  Status Bootstrap();

  // -- Definition -----------------------------------------------------------

  /// Transparent table: creates the RDBMS table 1:1 plus its primary-key
  /// index named <name>~0.
  Status DefineTransparent(const std::string& name, rdbms::Schema schema,
                           std::vector<std::string> key_columns);

  /// Pool table inside physical pool `pool_name` (the physical table is
  /// created on first use).
  Status DefinePool(const std::string& name, rdbms::Schema schema,
                    std::vector<std::string> key_columns,
                    const std::string& pool_name);

  /// Cluster table in physical cluster `cluster_name`; the first
  /// `cluster_key_count` key columns identify one physical bundle.
  Status DefineCluster(const std::string& name, rdbms::Schema schema,
                       std::vector<std::string> key_columns,
                       size_t cluster_key_count,
                       const std::string& cluster_name);

  /// Secondary index on a transparent table.
  Status CreateSecondaryIndex(const std::string& table,
                              const std::string& index_suffix,
                              const std::vector<std::string>& columns);

  /// Join view over transparent tables along key relationships — what a
  /// Release 2.2 report must define to push a join down (Section 2.3).
  /// `select_sql` is the view body; `schema` lists the exported columns.
  Status DefineJoinView(const std::string& name, const std::string& select_sql,
                        rdbms::Schema schema);

  // -- Lookup ----------------------------------------------------------------

  Result<const LogicalTable*> Get(const std::string& name) const;
  bool Exists(const std::string& name) const;
  bool IsEncapsulated(const std::string& name) const;
  std::vector<const LogicalTable*> AllTables() const;

  // -- Row access for encapsulated tables (and inserts for all kinds) --------

  /// Inserts one logical row (any kind). Transparent rows go through the
  /// RDBMS directly; pool rows encode (TABNAME, VARKEY, VARDATA); cluster
  /// rows read-modify-write their bundle.
  Status InsertLogical(const std::string& table, const rdbms::Row& row);

  /// Reads logical rows matching all `conds` (decoding pool/cluster storage
  /// as needed). Key-prefix equality conditions are pushed into the physical
  /// read; the rest are evaluated while decoding. Transparent tables are
  /// served via plain SQL.
  Result<std::vector<rdbms::Row>> ReadLogical(
      const std::string& table, const std::vector<DictCond>& conds) const;

  /// Converts a pool or cluster table to transparent: creates the real
  /// RDBMS table (CHAR-padded columns — this is why KONV tripled in size),
  /// copies all logical rows, and removes the encapsulated storage.
  /// Release rules: 2.2 converts only pool tables.
  Status ConvertToTransparent(const std::string& table, Release release);

  /// Total decode operations performed (for tests/benches).
  int64_t decode_count() const { return decode_count_; }

 private:
  Status EnsurePoolPhysical(const std::string& pool_name);
  Status EnsureClusterPhysical(const LogicalTable& t);
  std::string EncodeVarKey(const LogicalTable& t, const rdbms::Row& row,
                           size_t prefix_count) const;
  std::string EncodeVarData(const LogicalTable& t, const rdbms::Row& row) const;
  /// Parses one bundle into `*row` in place (field count, then each field
  /// strictly); a malformed bundle fails with a Status.
  Status DecodeVarData(const LogicalTable& t, std::string_view data,
                       rdbms::Row* row) const;

  Result<std::vector<rdbms::Row>> ReadPool(const LogicalTable& t,
                                           const std::vector<DictCond>& conds) const;
  Result<std::vector<rdbms::Row>> ReadCluster(
      const LogicalTable& t, const std::vector<DictCond>& conds) const;

  rdbms::Database* db_;
  std::map<std::string, LogicalTable> tables_;
  mutable int64_t decode_count_ = 0;
};

}  // namespace appsys
}  // namespace r3

#endif  // R3DB_APPSYS_DATA_DICTIONARY_H_
