//===- lang/Ast.cpp - Transaction language AST -----------------------------===//

#include "lang/Ast.h"

#include "support/Str.h"

#include <algorithm>
#include <cassert>

using namespace pushpull;

std::optional<ResolvedCall> MethodExpr::resolve(const Stack &Sigma) const {
  ResolvedCall Out;
  Out.Object = Object;
  Out.Method = Method;
  for (const Arg &A : Args) {
    if (const Value *V = std::get_if<Value>(&A)) {
      Out.Args.push_back(*V);
      continue;
    }
    auto Bound = Sigma.get(std::get<std::string>(A));
    if (!Bound)
      return std::nullopt;
    Out.Args.push_back(*Bound);
  }
  return Out;
}

std::string MethodExpr::toString() const {
  std::vector<std::string> Parts;
  for (const Arg &A : Args) {
    if (const Value *V = std::get_if<Value>(&A))
      Parts.push_back(std::to_string(*V));
    else
      Parts.push_back(std::get<std::string>(A));
  }
  std::string Out;
  if (ResultVar)
    Out += *ResultVar + " := ";
  Out += Object + "." + Method + "(" + join(Parts, ",") + ")";
  return Out;
}

const MethodExpr &Code::call() const {
  assert(Kind == CodeKind::Call && "call() on non-call node");
  return Call;
}

const CodePtr &Code::lhs() const {
  assert((Kind == CodeKind::Seq || Kind == CodeKind::Choice) &&
         "lhs() on leaf node");
  return Lhs;
}

const CodePtr &Code::rhs() const {
  assert((Kind == CodeKind::Seq || Kind == CodeKind::Choice) &&
         "rhs() on leaf node");
  return Rhs;
}

const CodePtr &Code::body() const {
  assert((Kind == CodeKind::Loop || Kind == CodeKind::Tx) &&
         "body() on non-loop/tx node");
  return Body;
}

bool Code::equals(const Code &O) const {
  if (Kind != O.Kind)
    return false;
  switch (Kind) {
  case CodeKind::Skip:
    return true;
  case CodeKind::Call:
    return Call.Object == O.Call.Object && Call.Method == O.Call.Method &&
           Call.Args == O.Call.Args && Call.ResultVar == O.Call.ResultVar;
  case CodeKind::Seq:
  case CodeKind::Choice:
    return codeEquals(Lhs, O.Lhs) && codeEquals(Rhs, O.Rhs);
  case CodeKind::Loop:
  case CodeKind::Tx:
    return codeEquals(Body, O.Body);
  }
  return false;
}

CodePtr Code::makeSkip() {
  // Skip carries no payload and nodes are immutable, so one shared
  // instance serves every continuation step() synthesizes.
  static const CodePtr Skip(new Code(CodeKind::Skip));
  return Skip;
}

CodePtr Code::makeCall(MethodExpr M) {
  Code *C = new Code(CodeKind::Call);
  C->Call = std::move(M);
  return CodePtr(C);
}

CodePtr Code::makeSeq(CodePtr L, CodePtr R) {
  assert(L && R && "seq of null code");
  Code *C = new Code(CodeKind::Seq);
  C->Height = 1 + std::max(L->Height, R->Height);
  C->Lhs = std::move(L);
  C->Rhs = std::move(R);
  return CodePtr(C);
}

CodePtr Code::makeChoice(CodePtr L, CodePtr R) {
  assert(L && R && "choice of null code");
  Code *C = new Code(CodeKind::Choice);
  C->Height = 1 + std::max(L->Height, R->Height);
  C->Lhs = std::move(L);
  C->Rhs = std::move(R);
  return CodePtr(C);
}

CodePtr Code::makeLoop(CodePtr B) {
  assert(B && "loop of null code");
  Code *C = new Code(CodeKind::Loop);
  C->Height = 1 + B->Height;
  C->Body = std::move(B);
  return CodePtr(C);
}

CodePtr Code::makeTx(CodePtr B) {
  assert(B && "tx of null code");
  Code *C = new Code(CodeKind::Tx);
  C->Height = 1 + B->Height;
  C->Body = std::move(B);
  return CodePtr(C);
}

CodePtr pushpull::skip() { return Code::makeSkip(); }

CodePtr pushpull::call(std::string Object, std::string Method,
                       std::vector<Arg> Args,
                       std::optional<std::string> ResultVar) {
  MethodExpr M;
  M.Object = std::move(Object);
  M.Method = std::move(Method);
  M.Args = std::move(Args);
  M.ResultVar = std::move(ResultVar);
  return Code::makeCall(std::move(M));
}

CodePtr pushpull::seq(CodePtr L, CodePtr R) {
  return Code::makeSeq(std::move(L), std::move(R));
}

CodePtr pushpull::seqAll(std::vector<CodePtr> Cs) {
  if (Cs.empty())
    return skip();
  CodePtr Out = Cs.back();
  for (size_t I = Cs.size() - 1; I > 0; --I)
    Out = seq(Cs[I - 1], Out);
  return Out;
}

CodePtr pushpull::choice(CodePtr L, CodePtr R) {
  return Code::makeChoice(std::move(L), std::move(R));
}

CodePtr pushpull::loop(CodePtr B) { return Code::makeLoop(std::move(B)); }

CodePtr pushpull::tx(CodePtr B) { return Code::makeTx(std::move(B)); }

bool pushpull::codeEquals(const CodePtr &A, const CodePtr &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return A->equals(*B);
}
