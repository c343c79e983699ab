//===- support/Diagnostics.h - Compiler diagnostics -------------*- C++ -*-===//
//
// Part of the Descend reproduction. User-facing errors (malformed or unsafe
// programs) are recoverable and flow through the DiagnosticEngine; internal
// invariant violations use assert/llvm-style unreachable instead.
//
// The renderer produces Rust-style messages matching the shape of the error
// listings in the paper (Section 2), e.g. "error: conflicting memory access"
// with a source snippet and caret markers.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_SUPPORT_DIAGNOSTICS_H
#define DESCEND_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLocation.h"

#include <string>
#include <vector>

namespace descend {

class SourceManager;

enum class DiagSeverity { Note, Warning, Error };

/// Stable identifiers for every diagnostic the compiler can emit. Tests match
/// on these codes rather than on message text.
enum class DiagCode {
  // Lexer.
  LexUnknownCharacter,
  LexUnterminatedComment,
  LexBadNumber,
  // Parser.
  ParseExpected,
  ParseUnexpectedToken,
  ParseBadType,
  ParseBadDim,
  // Name resolution / typing.
  UnknownVariable,
  UnknownFunction,
  UnknownView,
  Redefinition,
  MismatchedTypes,
  WrongArgCount,
  WrongGenericArgCount,
  NotAnArray,
  NotATuple,
  NotAReference,
  CannotAssign,
  UseOfMovedValue,
  CannotMoveOut,
  CannotDereference,
  WrongExecutionContext,
  // Borrowing / access safety.
  ConflictingMemoryAccess,
  ConflictingBorrow,
  NarrowingViolated,
  SharedWriteRejected,
  // Exec resources / scheduling.
  BarrierNotAllowed,
  BarrierMissing,
  SchedOverMissingDim,
  SchedOverThread,
  SplitOutOfBounds,
  LaunchConfigMismatch,
  SelectShapeMismatch,
  // Host programs (Sections 2.3 / 3.4): CPU<->GPU transfer checking.
  TransferDirectionMismatch,
  TransferSizeMismatch,
  // Views.
  ViewSideConditionFailed,
  ViewShapeMismatch,
  // Nat solving.
  NatCannotProve,
  // Driver / pipeline.
  NegativeDefine,
  UnknownBackend,
  BackendFailed,
};

/// Returns the canonical headline for \p Code, e.g. "conflicting memory
/// access". Individual reports may append detail after the headline.
const char *diagCodeHeadline(DiagCode Code);

/// A secondary message attached to a primary diagnostic, optionally pointing
/// at its own source range.
struct DiagNote {
  SourceRange Range;
  std::string Message;
};

struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  DiagCode Code = DiagCode::ParseExpected;
  SourceRange Range;
  std::string Message;
  std::vector<DiagNote> Notes;

  Diagnostic &note(SourceRange R, std::string Msg) {
    Notes.push_back(DiagNote{R, std::move(Msg)});
    return *this;
  }
  Diagnostic &note(std::string Msg) {
    Notes.push_back(DiagNote{SourceRange(), std::move(Msg)});
    return *this;
  }
};

/// Collects diagnostics during a compilation. Rendering is separate so tests
/// can assert on structured diagnostics without string matching.
class DiagnosticEngine {
public:
  explicit DiagnosticEngine(const SourceManager &SM) : SM(SM) {}

  /// Reports a new diagnostic; returns a reference for attaching notes. The
  /// reference is invalidated by the next report() call.
  Diagnostic &report(DiagSeverity Severity, DiagCode Code, SourceRange Range,
                     std::string Message);

  Diagnostic &error(DiagCode Code, SourceRange Range, std::string Message) {
    return report(DiagSeverity::Error, Code, Range, std::move(Message));
  }
  Diagnostic &warning(DiagCode Code, SourceRange Range, std::string Message) {
    return report(DiagSeverity::Warning, Code, Range, std::move(Message));
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &all() const { return Diags; }
  bool empty() const { return Diags.empty(); }
  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

  /// True if any collected diagnostic carries \p Code.
  bool contains(DiagCode Code) const;

  /// Renders one diagnostic in Rust-style format with source snippets.
  std::string render(const Diagnostic &D) const;

  /// Renders every collected diagnostic, separated by blank lines.
  std::string renderAll() const;

  const SourceManager &sourceManager() const { return SM; }

private:
  const SourceManager &SM;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace descend

#endif // DESCEND_SUPPORT_DIAGNOSTICS_H
