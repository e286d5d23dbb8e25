#include "dsl/lexer.h"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "util/strings.h"

namespace relacc {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "end of input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kAttrRef: return "attribute reference";
    case TokenKind::kString: return "string literal";
    case TokenKind::kInt: return "integer literal";
    case TokenKind::kReal: return "real literal";
    case TokenKind::kKwRule: return "'rule'";
    case TokenKind::kKwForall: return "'forall'";
    case TokenKind::kKwIn: return "'in'";
    case TokenKind::kKwAnd: return "'and'";
    case TokenKind::kKwOn: return "'on'";
    case TokenKind::kKwTrue: return "'true'";
    case TokenKind::kKwFalse: return "'false'";
    case TokenKind::kKwNull: return "'null'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kColon: return "':'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kAt: return "'@'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kAssign: return "':='";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
  }
  return "?";
}

Lexer::Lexer(std::string input) : input_(std::move(input)) {}

char Lexer::Peek(int ahead) const {
  int p = pos_ + ahead;
  if (p >= static_cast<int>(input_.size())) return '\0';
  return input_[p];
}

char Lexer::Advance() {
  char c = input_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (c == '#') {
      while (!AtEnd() && Peek() != '\n') Advance();
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      Advance();
    } else {
      break;
    }
  }
}

Status Lexer::ErrorHere(const std::string& message) const {
  return Status::ParseError(message + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
}

Result<Token> Lexer::LexString(Token token) {
  Advance();  // opening quote
  std::string out;
  while (true) {
    if (AtEnd() || Peek() == '\n') {
      return ErrorHere("unterminated string literal");
    }
    char c = Advance();
    if (c == '"') break;
    if (c == '\\') {
      if (AtEnd()) return ErrorHere("unterminated escape");
      char e = Advance();
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case '\\': out.push_back('\\'); break;
        case '"': out.push_back('"'); break;
        default:
          return ErrorHere(std::string("unknown escape '\\") + e + "'");
      }
    } else {
      out.push_back(c);
    }
  }
  token.kind = TokenKind::kString;
  token.text = std::move(out);
  return token;
}

Result<Token> Lexer::LexNumber(Token token) {
  std::string text;
  if (Peek() == '-' || Peek() == '+') text.push_back(Advance());
  bool is_real = false;
  while (!AtEnd()) {
    char c = Peek();
    if (std::isdigit(static_cast<unsigned char>(c))) {
      text.push_back(Advance());
    } else if (c == '.' && !is_real) {
      is_real = true;
      text.push_back(Advance());
    } else if ((c == 'e' || c == 'E') &&
               std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      is_real = true;
      text.push_back(Advance());
      text.push_back(Advance());
    } else {
      break;
    }
  }
  if (text.empty() || text == "-" || text == "+") {
    return ErrorHere("malformed number");
  }
  if (is_real) {
    token.kind = TokenKind::kReal;
    token.real_value = std::strtod(text.c_str(), nullptr);
  } else {
    token.kind = TokenKind::kInt;
    token.int_value = std::strtoll(text.c_str(), nullptr, 10);
  }
  token.text = std::move(text);
  return token;
}

Result<Token> Lexer::LexAttrRef(Token token) {
  Advance();  // '['
  std::string out;
  while (true) {
    if (AtEnd() || Peek() == '\n') {
      return ErrorHere("unterminated attribute reference (missing ']')");
    }
    char c = Advance();
    if (c == ']') break;
    out.push_back(c);
  }
  token.kind = TokenKind::kAttrRef;
  token.text = std::string(Trim(out));
  if (token.text.empty()) return ErrorHere("empty attribute reference");
  return token;
}

Result<Token> Lexer::LexIdentOrKeyword(Token token) {
  std::string text;
  while (!AtEnd()) {
    char c = Peek();
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      text.push_back(Advance());
    } else {
      break;
    }
  }
  token.text = std::move(text);
  if (token.text == "rule") token.kind = TokenKind::kKwRule;
  else if (token.text == "forall") token.kind = TokenKind::kKwForall;
  else if (token.text == "in") token.kind = TokenKind::kKwIn;
  else if (token.text == "and") token.kind = TokenKind::kKwAnd;
  else if (token.text == "on") token.kind = TokenKind::kKwOn;
  else if (token.text == "true") token.kind = TokenKind::kKwTrue;
  else if (token.text == "false") token.kind = TokenKind::kKwFalse;
  else if (token.text == "null") token.kind = TokenKind::kKwNull;
  else token.kind = TokenKind::kIdent;
  return token;
}

Result<Token> Lexer::Next() {
  SkipWhitespaceAndComments();
  Token token;
  token.line = line_;
  token.column = column_;
  if (AtEnd()) {
    token.kind = TokenKind::kEnd;
    return token;
  }
  char c = Peek();
  if (c == '"') return LexString(std::move(token));
  if (c == '[') return LexAttrRef(std::move(token));
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      ((c == '-' || c == '+') &&
       std::isdigit(static_cast<unsigned char>(Peek(1))))) {
    return LexNumber(std::move(token));
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    return LexIdentOrKeyword(std::move(token));
  }
  Advance();
  switch (c) {
    case '(': token.kind = TokenKind::kLParen; return token;
    case ')': token.kind = TokenKind::kRParen; return token;
    case ',': token.kind = TokenKind::kComma; return token;
    case ';': token.kind = TokenKind::kSemicolon; return token;
    case '@': token.kind = TokenKind::kAt; return token;
    case ':':
      if (Peek() == '=') {
        Advance();
        token.kind = TokenKind::kAssign;
      } else {
        token.kind = TokenKind::kColon;
      }
      return token;
    case '-':
      if (Peek() == '>') {
        Advance();
        token.kind = TokenKind::kArrow;
        return token;
      }
      return ErrorHere("stray '-' (expected '->')");
    case '=':
      if (Peek() == '=') Advance();  // accept '==' as '='
      token.kind = TokenKind::kEq;
      return token;
    case '!':
      if (Peek() == '=') {
        Advance();
        token.kind = TokenKind::kNe;
        return token;
      }
      return ErrorHere("stray '!' (expected '!=')");
    case '<':
      if (Peek() == '=') {
        Advance();
        token.kind = TokenKind::kLe;
      } else {
        token.kind = TokenKind::kLt;
      }
      return token;
    case '>':
      if (Peek() == '=') {
        Advance();
        token.kind = TokenKind::kGe;
      } else {
        token.kind = TokenKind::kGt;
      }
      return token;
    default:
      return ErrorHere(std::string("unexpected character '") + c + "'");
  }
}

Result<std::vector<Token>> Lexer::Tokenize() {
  std::vector<Token> tokens;
  while (true) {
    Result<Token> token = Next();
    if (!token.ok()) return token.status();
    bool done = token.value().kind == TokenKind::kEnd;
    tokens.push_back(std::move(token).value());
    if (done) break;
  }
  return tokens;
}

}  // namespace relacc
