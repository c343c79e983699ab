//===- support/Diagnostics.cpp --------------------------------------------===//

#include "support/Diagnostics.h"

#include "support/SourceManager.h"

#include <sstream>

using namespace descend;

const char *descend::diagCodeHeadline(DiagCode Code) {
  switch (Code) {
  case DiagCode::LexUnknownCharacter:
    return "unknown character";
  case DiagCode::LexUnterminatedComment:
    return "unterminated block comment";
  case DiagCode::LexBadNumber:
    return "malformed numeric literal";
  case DiagCode::ParseExpected:
    return "expected token";
  case DiagCode::ParseUnexpectedToken:
    return "unexpected token";
  case DiagCode::ParseBadType:
    return "malformed type";
  case DiagCode::ParseBadDim:
    return "malformed dimension";
  case DiagCode::UnknownVariable:
    return "unknown variable";
  case DiagCode::UnknownFunction:
    return "unknown function";
  case DiagCode::UnknownView:
    return "unknown view";
  case DiagCode::Redefinition:
    return "redefinition";
  case DiagCode::MismatchedTypes:
    return "mismatched types";
  case DiagCode::WrongArgCount:
    return "wrong number of arguments";
  case DiagCode::WrongGenericArgCount:
    return "wrong number of generic arguments";
  case DiagCode::NotAnArray:
    return "expression is not an array";
  case DiagCode::NotATuple:
    return "expression is not a tuple";
  case DiagCode::NotAReference:
    return "expression is not a reference";
  case DiagCode::CannotAssign:
    return "cannot assign";
  case DiagCode::UseOfMovedValue:
    return "use of moved value";
  case DiagCode::CannotMoveOut:
    return "cannot move out of this place";
  case DiagCode::CannotDereference:
    return "cannot dereference";
  case DiagCode::WrongExecutionContext:
    return "wrong execution context";
  case DiagCode::ConflictingMemoryAccess:
    return "conflicting memory access";
  case DiagCode::ConflictingBorrow:
    return "conflicting borrow";
  case DiagCode::NarrowingViolated:
    return "narrowing violated";
  case DiagCode::SharedWriteRejected:
    return "cannot write through shared access";
  case DiagCode::BarrierNotAllowed:
    return "barrier not allowed here";
  case DiagCode::BarrierMissing:
    return "missing barrier synchronization";
  case DiagCode::SchedOverMissingDim:
    return "cannot schedule over missing dimension";
  case DiagCode::SchedOverThread:
    return "cannot schedule inside a single thread";
  case DiagCode::SplitOutOfBounds:
    return "split position out of bounds";
  case DiagCode::LaunchConfigMismatch:
    return "mismatched launch configuration";
  case DiagCode::SelectShapeMismatch:
    return "selection does not match execution resource shape";
  case DiagCode::TransferDirectionMismatch:
    return "mismatched transfer direction";
  case DiagCode::TransferSizeMismatch:
    return "mismatched transfer size";
  case DiagCode::ViewSideConditionFailed:
    return "view side condition not satisfied";
  case DiagCode::ViewShapeMismatch:
    return "view applied to incompatible shape";
  case DiagCode::NatCannotProve:
    return "cannot statically prove size constraint";
  case DiagCode::NegativeDefine:
    return "negative nat binding";
  case DiagCode::UnknownBackend:
    return "unknown code-generation backend";
  case DiagCode::BackendFailed:
    return "code generation failed";
  }
  return "unknown diagnostic";
}

Diagnostic &DiagnosticEngine::report(DiagSeverity Severity, DiagCode Code,
                                     SourceRange Range, std::string Message) {
  Diagnostic D;
  D.Severity = Severity;
  D.Code = Code;
  D.Range = Range;
  D.Message = std::move(Message);
  if (Severity == DiagSeverity::Error)
    ++NumErrors;
  Diags.push_back(std::move(D));
  return Diags.back();
}

bool DiagnosticEngine::contains(DiagCode Code) const {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

static const char *severityLabel(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "error";
}

/// Appends a "LINE | source" snippet with caret underlining for \p Range.
static void renderSnippet(const SourceManager &SM, SourceRange Range,
                          char Marker, std::ostringstream &OS) {
  if (!Range.isValid())
    return;
  PresumedLoc P = SM.presumed(Range.Begin);
  std::string_view Line = SM.lineContaining(Range.Begin);
  std::string LineNo = std::to_string(P.Line);
  std::string Gutter(LineNo.size(), ' ');

  OS << Gutter << "--> " << P.BufferName << ":" << P.Line << ":" << P.Column
     << "\n";
  OS << Gutter << " |\n";
  OS << LineNo << " | " << Line << "\n";
  OS << Gutter << " | ";
  unsigned Col = P.Column; // 1-based
  for (unsigned I = 1; I < Col; ++I)
    OS << ' ';
  // Underline up to the end of the range if it is on the same line,
  // otherwise underline to end of line.
  uint32_t Len = 1;
  if (Range.End.isValid() && Range.End.Offset > Range.Begin.Offset)
    Len = Range.End.Offset - Range.Begin.Offset;
  uint32_t Remaining = Line.size() >= (Col - 1) ? Line.size() - (Col - 1) : 1;
  if (Len > Remaining)
    Len = Remaining ? Remaining : 1;
  for (uint32_t I = 0; I != Len; ++I)
    OS << Marker;
  OS << "\n";
}

std::string DiagnosticEngine::render(const Diagnostic &D) const {
  std::ostringstream OS;
  OS << severityLabel(D.Severity) << ": " << D.Message << "\n";
  renderSnippet(SM, D.Range, '^', OS);
  for (const DiagNote &N : D.Notes) {
    if (N.Range.isValid()) {
      renderSnippet(SM, N.Range, '-', OS);
      OS << "  = note: " << N.Message << "\n";
    } else {
      OS << "  = note: " << N.Message << "\n";
    }
  }
  return OS.str();
}

std::string DiagnosticEngine::renderAll() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags)
    OS << render(D) << "\n";
  return OS.str();
}
