// The 17 TPC-D queries as standard SQL on the original 8-table database —
// the paper's "isolated RDBMS" baseline. Q15 follows the spec's structure
// (a revenue aggregation reused by an outer lookup) as two statements, and
// Q13 is the selective order-census substitution documented in DESIGN.md.
#include "tpcd/queries.h"

#include "common/date.h"
#include "common/str_util.h"

namespace r3 {
namespace tpcd {

namespace {

using rdbms::QueryResult;
using rdbms::Value;

std::string D(int32_t day) { return "DATE '" + date::ToString(day) + "'"; }

std::string Q1Text(const QueryParams& p) {
  int32_t cutoff =
      date::FromYmd(1998, 12, 1) - static_cast<int32_t>(p.q1_delta_days);
  return str::Format(
      "SELECT L_RETURNFLAG, L_LINESTATUS, SUM(L_QUANTITY) SUM_QTY, "
      "SUM(L_EXTENDEDPRICE) SUM_BASE_PRICE, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) SUM_DISC_PRICE, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX)) SUM_CHARGE, "
      "AVG(L_QUANTITY) AVG_QTY, AVG(L_EXTENDEDPRICE) AVG_PRICE, "
      "AVG(L_DISCOUNT) AVG_DISC, COUNT(*) COUNT_ORDER "
      "FROM LINEITEM WHERE L_SHIPDATE <= %s "
      "GROUP BY L_RETURNFLAG, L_LINESTATUS "
      "ORDER BY L_RETURNFLAG, L_LINESTATUS",
      D(cutoff).c_str());
}

std::string Q2Text(const QueryParams& p) {
  return str::Format(
      "SELECT S_ACCTBAL, S_NAME, N_NAME, P_PARTKEY, P_MFGR, S_ADDRESS, "
      "S_PHONE, S_COMMENT "
      "FROM PART, SUPPLIER, PARTSUPP, NATION, REGION "
      "WHERE P_PARTKEY = PS_PARTKEY AND S_SUPPKEY = PS_SUPPKEY "
      "AND P_SIZE = %lld AND P_TYPE LIKE '%%%s' "
      "AND S_NATIONKEY = N_NATIONKEY AND N_REGIONKEY = R_REGIONKEY "
      "AND R_NAME = '%s' "
      "AND PS_SUPPLYCOST = (SELECT MIN(PS2.PS_SUPPLYCOST) "
      "FROM PARTSUPP PS2, SUPPLIER S2, NATION N2, REGION R2 "
      "WHERE P_PARTKEY = PS2.PS_PARTKEY AND S2.S_SUPPKEY = PS2.PS_SUPPKEY "
      "AND S2.S_NATIONKEY = N2.N_NATIONKEY "
      "AND N2.N_REGIONKEY = R2.R_REGIONKEY AND R2.R_NAME = '%s') "
      "ORDER BY S_ACCTBAL DESC, N_NAME, S_NAME, P_PARTKEY LIMIT 100",
      static_cast<long long>(p.q2_size), p.q2_type_suffix.c_str(),
      p.q2_region.c_str(), p.q2_region.c_str());
}

std::string Q3Text(const QueryParams& p) {
  return str::Format(
      "SELECT L_ORDERKEY, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) REVENUE, "
      "O_ORDERDATE, O_SHIPPRIORITY "
      "FROM CUSTOMER, ORDERS, LINEITEM "
      "WHERE C_MKTSEGMENT = '%s' AND C_CUSTKEY = O_CUSTKEY "
      "AND L_ORDERKEY = O_ORDERKEY AND O_ORDERDATE < %s "
      "AND L_SHIPDATE > %s "
      "GROUP BY L_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY "
      "ORDER BY REVENUE DESC, O_ORDERDATE LIMIT 10",
      p.q3_segment.c_str(), D(p.q3_date).c_str(), D(p.q3_date).c_str());
}

std::string Q4Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q4_date, 3);
  return str::Format(
      "SELECT O_ORDERPRIORITY, COUNT(*) ORDER_COUNT FROM ORDERS "
      "WHERE O_ORDERDATE >= %s AND O_ORDERDATE < %s "
      "AND EXISTS (SELECT * FROM LINEITEM WHERE L_ORDERKEY = O_ORDERKEY "
      "AND L_COMMITDATE < L_RECEIPTDATE) "
      "GROUP BY O_ORDERPRIORITY ORDER BY O_ORDERPRIORITY",
      D(p.q4_date).c_str(), D(hi).c_str());
}

std::string Q5Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q5_date, 12);
  return str::Format(
      "SELECT N_NAME, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) REVENUE "
      "FROM CUSTOMER, ORDERS, LINEITEM, SUPPLIER, NATION, REGION "
      "WHERE C_CUSTKEY = O_CUSTKEY AND L_ORDERKEY = O_ORDERKEY "
      "AND L_SUPPKEY = S_SUPPKEY AND C_NATIONKEY = S_NATIONKEY "
      "AND S_NATIONKEY = N_NATIONKEY AND N_REGIONKEY = R_REGIONKEY "
      "AND R_NAME = '%s' AND O_ORDERDATE >= %s AND O_ORDERDATE < %s "
      "GROUP BY N_NAME ORDER BY REVENUE DESC",
      p.q5_region.c_str(), D(p.q5_date).c_str(), D(hi).c_str());
}

std::string Q6Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q6_date, 12);
  return str::Format(
      "SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) REVENUE FROM LINEITEM "
      "WHERE L_SHIPDATE >= %s AND L_SHIPDATE < %s "
      "AND L_DISCOUNT BETWEEN %.2f AND %.2f AND L_QUANTITY < %lld",
      D(p.q6_date).c_str(), D(hi).c_str(), p.q6_discount - 0.011,
      p.q6_discount + 0.011, static_cast<long long>(p.q6_quantity));
}

std::string Q7Text(const QueryParams& p) {
  return str::Format(
      "SELECT N1.N_NAME SUPP_NATION, N2.N_NAME CUST_NATION, "
      "YEAR(L_SHIPDATE) L_YEAR, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) REVENUE "
      "FROM SUPPLIER, LINEITEM, ORDERS, CUSTOMER, NATION N1, NATION N2 "
      "WHERE S_SUPPKEY = L_SUPPKEY AND O_ORDERKEY = L_ORDERKEY "
      "AND C_CUSTKEY = O_CUSTKEY AND S_NATIONKEY = N1.N_NATIONKEY "
      "AND C_NATIONKEY = N2.N_NATIONKEY "
      "AND ((N1.N_NAME = '%s' AND N2.N_NAME = '%s') "
      "OR (N1.N_NAME = '%s' AND N2.N_NAME = '%s')) "
      "AND L_SHIPDATE BETWEEN %s AND %s "
      "GROUP BY N1.N_NAME, N2.N_NAME, YEAR(L_SHIPDATE) "
      "ORDER BY SUPP_NATION, CUST_NATION, L_YEAR",
      p.q7_nation1.c_str(), p.q7_nation2.c_str(), p.q7_nation2.c_str(),
      p.q7_nation1.c_str(), D(date::FromYmd(1995, 1, 1)).c_str(),
      D(date::FromYmd(1996, 12, 31)).c_str());
}

std::string Q8Text(const QueryParams& p) {
  return str::Format(
      "SELECT YEAR(O_ORDERDATE) O_YEAR, "
      "SUM(CASE WHEN N2.N_NAME = '%s' "
      "THEN L_EXTENDEDPRICE * (1 - L_DISCOUNT) ELSE 0 END) / "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) MKT_SHARE "
      "FROM PART, SUPPLIER, LINEITEM, ORDERS, CUSTOMER, NATION N1, "
      "NATION N2, REGION "
      "WHERE P_PARTKEY = L_PARTKEY AND S_SUPPKEY = L_SUPPKEY "
      "AND L_ORDERKEY = O_ORDERKEY AND O_CUSTKEY = C_CUSTKEY "
      "AND C_NATIONKEY = N1.N_NATIONKEY AND N1.N_REGIONKEY = R_REGIONKEY "
      "AND R_NAME = '%s' AND S_NATIONKEY = N2.N_NATIONKEY "
      "AND O_ORDERDATE BETWEEN %s AND %s AND P_TYPE = '%s' "
      "GROUP BY YEAR(O_ORDERDATE) ORDER BY O_YEAR",
      p.q8_nation.c_str(), p.q8_region.c_str(),
      D(date::FromYmd(1995, 1, 1)).c_str(),
      D(date::FromYmd(1996, 12, 31)).c_str(), p.q8_type.c_str());
}

std::string Q9Text(const QueryParams& p) {
  return str::Format(
      "SELECT N_NAME NATION, YEAR(O_ORDERDATE) O_YEAR, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT) - PS_SUPPLYCOST * L_QUANTITY) "
      "SUM_PROFIT "
      "FROM PART, SUPPLIER, LINEITEM, PARTSUPP, ORDERS, NATION "
      "WHERE S_SUPPKEY = L_SUPPKEY AND PS_SUPPKEY = L_SUPPKEY "
      "AND PS_PARTKEY = L_PARTKEY AND P_PARTKEY = L_PARTKEY "
      "AND O_ORDERKEY = L_ORDERKEY AND S_NATIONKEY = N_NATIONKEY "
      "AND P_NAME LIKE '%%%s%%' "
      "GROUP BY N_NAME, YEAR(O_ORDERDATE) "
      "ORDER BY NATION, O_YEAR DESC",
      p.q9_color.c_str());
}

std::string Q10Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q10_date, 3);
  return str::Format(
      "SELECT C_CUSTKEY, C_NAME, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) REVENUE, C_ACCTBAL, "
      "N_NAME, C_ADDRESS, C_PHONE "
      "FROM CUSTOMER, ORDERS, LINEITEM, NATION "
      "WHERE C_CUSTKEY = O_CUSTKEY AND L_ORDERKEY = O_ORDERKEY "
      "AND O_ORDERDATE >= %s AND O_ORDERDATE < %s "
      "AND L_RETURNFLAG = 'R' AND C_NATIONKEY = N_NATIONKEY "
      "GROUP BY C_CUSTKEY, C_NAME, C_ACCTBAL, C_PHONE, N_NAME, C_ADDRESS "
      "ORDER BY REVENUE DESC LIMIT 20",
      D(p.q10_date).c_str(), D(hi).c_str());
}

std::string Q11Text(const QueryParams& p) {
  return str::Format(
      "SELECT PS_PARTKEY, SUM(PS_SUPPLYCOST * PS_AVAILQTY) VAL "
      "FROM PARTSUPP, SUPPLIER, NATION "
      "WHERE PS_SUPPKEY = S_SUPPKEY AND S_NATIONKEY = N_NATIONKEY "
      "AND N_NAME = '%s' "
      "GROUP BY PS_PARTKEY "
      "HAVING SUM(PS_SUPPLYCOST * PS_AVAILQTY) > "
      "(SELECT SUM(PS2.PS_SUPPLYCOST * PS2.PS_AVAILQTY) * %.10f "
      "FROM PARTSUPP PS2, SUPPLIER S2, NATION N2 "
      "WHERE PS2.PS_SUPPKEY = S2.S_SUPPKEY "
      "AND S2.S_NATIONKEY = N2.N_NATIONKEY AND N2.N_NAME = '%s') "
      "ORDER BY VAL DESC",
      p.q11_nation.c_str(), p.q11_fraction, p.q11_nation.c_str());
}

std::string Q12Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q12_date, 12);
  return str::Format(
      "SELECT L_SHIPMODE, "
      "SUM(CASE WHEN O_ORDERPRIORITY = '1-URGENT' "
      "OR O_ORDERPRIORITY = '2-HIGH' THEN 1 ELSE 0 END) HIGH_LINE_COUNT, "
      "SUM(CASE WHEN O_ORDERPRIORITY <> '1-URGENT' "
      "AND O_ORDERPRIORITY <> '2-HIGH' THEN 1 ELSE 0 END) LOW_LINE_COUNT "
      "FROM ORDERS, LINEITEM "
      "WHERE O_ORDERKEY = L_ORDERKEY AND L_SHIPMODE IN ('%s', '%s') "
      "AND L_COMMITDATE < L_RECEIPTDATE AND L_SHIPDATE < L_COMMITDATE "
      "AND L_RECEIPTDATE >= %s AND L_RECEIPTDATE < %s "
      "GROUP BY L_SHIPMODE ORDER BY L_SHIPMODE",
      p.q12_mode1.c_str(), p.q12_mode2.c_str(), D(p.q12_date).c_str(),
      D(hi).c_str());
}

std::string Q13Text(const QueryParams& p) {
  // Substituted selective census (DESIGN.md): one order day.
  return str::Format(
      "SELECT O_ORDERPRIORITY, COUNT(*) ORDER_COUNT, "
      "SUM(O_TOTALPRICE) TOTAL FROM ORDERS WHERE O_ORDERDATE = %s "
      "GROUP BY O_ORDERPRIORITY ORDER BY O_ORDERPRIORITY",
      D(p.q13_date).c_str());
}

std::string Q14Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q14_date, 1);
  return str::Format(
      "SELECT 100.00 * SUM(CASE WHEN P_TYPE LIKE 'PROMO%%' "
      "THEN L_EXTENDEDPRICE * (1 - L_DISCOUNT) ELSE 0 END) / "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) PROMO_REVENUE "
      "FROM LINEITEM, PART "
      "WHERE L_PARTKEY = P_PARTKEY AND L_SHIPDATE >= %s "
      "AND L_SHIPDATE < %s",
      D(p.q14_date).c_str(), D(hi).c_str());
}

std::string Q15Text(const QueryParams& p) {
  int32_t hi = date::AddMonths(p.q15_date, 3);
  return str::Format(
      "SELECT L_SUPPKEY SUPPLIER_NO, "
      "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) TOTAL_REVENUE "
      "FROM LINEITEM WHERE L_SHIPDATE >= %s AND L_SHIPDATE < %s "
      "GROUP BY L_SUPPKEY",
      D(p.q15_date).c_str(), D(hi).c_str());
}

std::string Q16Text(const QueryParams& p) {
  std::string sizes;
  for (size_t i = 0; i < p.q16_sizes.size(); ++i) {
    if (i != 0) sizes += ", ";
    sizes += std::to_string(p.q16_sizes[i]);
  }
  return str::Format(
      "SELECT P_BRAND, P_TYPE, P_SIZE, "
      "COUNT(DISTINCT PS_SUPPKEY) SUPPLIER_CNT "
      "FROM PARTSUPP, PART "
      "WHERE P_PARTKEY = PS_PARTKEY AND P_BRAND <> '%s' "
      "AND P_TYPE NOT LIKE '%s%%' AND P_SIZE IN (%s) "
      "AND PS_SUPPKEY NOT IN (SELECT S_SUPPKEY FROM SUPPLIER "
      "WHERE S_COMMENT LIKE '%%Customer%%Complaints%%') "
      "GROUP BY P_BRAND, P_TYPE, P_SIZE "
      "ORDER BY SUPPLIER_CNT DESC, P_BRAND, P_TYPE, P_SIZE",
      p.q16_brand.c_str(), p.q16_type_prefix.c_str(), sizes.c_str());
}

std::string Q17Text(const QueryParams& p) {
  return str::Format(
      "SELECT SUM(L_EXTENDEDPRICE) / 7.0 AVG_YEARLY "
      "FROM LINEITEM, PART "
      "WHERE P_PARTKEY = L_PARTKEY AND P_BRAND = '%s' "
      "AND P_CONTAINER = '%s' "
      "AND L_QUANTITY < (SELECT 0.2 * AVG(L2.L_QUANTITY) FROM LINEITEM L2 "
      "WHERE L2.L_PARTKEY = P_PARTKEY)",
      p.q17_brand.c_str(), p.q17_container.c_str());
}

}  // namespace

Result<std::string> RdbmsQueryText(int q, const QueryParams& p) {
  switch (q) {
    case 1:
      return Q1Text(p);
    case 2:
      return Q2Text(p);
    case 3:
      return Q3Text(p);
    case 4:
      return Q4Text(p);
    case 5:
      return Q5Text(p);
    case 6:
      return Q6Text(p);
    case 7:
      return Q7Text(p);
    case 8:
      return Q8Text(p);
    case 9:
      return Q9Text(p);
    case 10:
      return Q10Text(p);
    case 11:
      return Q11Text(p);
    case 12:
      return Q12Text(p);
    case 13:
      return Q13Text(p);
    case 14:
      return Q14Text(p);
    case 15:
      return Q15Text(p);
    case 16:
      return Q16Text(p);
    case 17:
      return Q17Text(p);
    default:
      return Status::InvalidArgument(str::Format("no query %d", q));
  }
}

namespace {

class RdbmsQuerySet : public IQuerySet {
 public:
  explicit RdbmsQuerySet(rdbms::Database* db) : db_(db) {}

  std::string name() const override { return "rdbms"; }

  Result<QueryResult> RunQuery(int q, const QueryParams& p) override {
    if (q == 15) return Q15(p);
    R3_ASSIGN_OR_RETURN(std::string sql, RdbmsQueryText(q, p));
    return db_->Query(sql);
  }

 private:
  Result<QueryResult> Q15(const QueryParams& p) {
    // Spec structure: revenue-per-supplier aggregation, then the suppliers
    // at the maximum. Two statements (the spec itself uses a view).
    R3_ASSIGN_OR_RETURN(QueryResult revenue, db_->Query(Q15Text(p)));
    double max_rev = 0;
    for (const rdbms::Row& row : revenue.rows) {
      max_rev = std::max(max_rev, row[1].AsDouble());
    }
    QueryResult out;
    out.column_names = {"S_SUPPKEY", "S_NAME", "S_ADDRESS", "S_PHONE",
                        "TOTAL_REVENUE"};
    for (const rdbms::Row& row : revenue.rows) {
      if (row[1].AsDouble() < max_rev - 1e-6) continue;
      R3_ASSIGN_OR_RETURN(
          QueryResult supp,
          db_->Query(str::Format(
              "SELECT S_SUPPKEY, S_NAME, S_ADDRESS, S_PHONE FROM SUPPLIER "
              "WHERE S_SUPPKEY = %lld",
              static_cast<long long>(row[0].AsInt()))));
      for (rdbms::Row& s : supp.rows) {
        s.push_back(row[1]);
        out.rows.push_back(std::move(s));
      }
    }
    return out;
  }

  rdbms::Database* db_;
};

}  // namespace

std::unique_ptr<IQuerySet> MakeRdbmsQuerySet(rdbms::Database* db) {
  return std::make_unique<RdbmsQuerySet>(db);
}

}  // namespace tpcd
}  // namespace r3
