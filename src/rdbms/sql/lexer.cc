#include "rdbms/sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/str_util.h"

namespace r3 {
namespace rdbms {

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  auto is_ident_start = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token t;
    t.position = i;
    if (is_ident_start(c)) {
      size_t start = i;
      while (i < n && is_ident(sql[i])) ++i;
      t.type = TokenType::kIdentifier;
      t.text = sql.substr(start, i - start);
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t save = i;
        ++i;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        if (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) {
          is_float = true;
          while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
        } else {
          i = save;  // 'e' belongs to a following identifier
        }
      }
      std::string text = sql.substr(start, i - start);
      // strtoll/strtod clamp an out-of-range literal to the type's limit;
      // reject it instead of running the query on a different number.
      errno = 0;
      bool out_of_range = false;
      if (is_float) {
        t.type = TokenType::kFloat;
        t.float_value = std::strtod(text.c_str(), nullptr);
        out_of_range = std::isinf(t.float_value);
      } else {
        t.type = TokenType::kInteger;
        t.int_value = std::strtoll(text.c_str(), nullptr, 10);
        out_of_range = errno == ERANGE;
      }
      if (out_of_range) {
        return Status::InvalidArgument(
            str::Format("numeric literal %s out of range at offset %zu",
                        text.c_str(), t.position));
      }
      t.text = std::move(text);
      out.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            text.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        text.push_back(sql[i++]);
      }
      if (!closed) {
        return Status::InvalidArgument(
            str::Format("unterminated string literal at offset %zu", t.position));
      }
      t.type = TokenType::kString;
      t.text = std::move(text);
      out.push_back(std::move(t));
      continue;
    }
    // Operators; two-char first.
    if (i + 1 < n) {
      std::string two = sql.substr(i, 2);
      if (two == "<>" || two == "<=" || two == ">=" || two == "!=" || two == "||") {
        t.type = TokenType::kOperator;
        t.text = two == "!=" ? "<>" : two;
        out.push_back(std::move(t));
        i += 2;
        continue;
      }
    }
    static const char kSingles[] = "()*,.;+-/=<>?";
    bool ok = false;
    for (char s : kSingles) {
      if (s != '\0' && c == s) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      return Status::InvalidArgument(
          str::Format("unexpected character '%c' at offset %zu", c, i));
    }
    t.type = TokenType::kOperator;
    t.text = std::string(1, c);
    out.push_back(std::move(t));
    ++i;
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace rdbms
}  // namespace r3
