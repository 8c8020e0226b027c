(** Minimal JSON writing and reading shared by the trace and metrics
    exports, the sweep journal, the serve protocol and its store.

    The values serialized are small (strings, numbers, objects and
    arrays), so a few combinators over [Buffer] suffice, without a JSON
    library.  Numbers are printed with enough digits to round-trip
    ([%.17g] for non-integral floats), and non-finite floats — which raw
    JSON cannot represent — are emitted as the strings ["inf"], ["-inf"]
    and ["nan"]. *)

val escape : string -> string
(** JSON string escaping of the bytes of the argument (quotes, backslash,
    control characters); the result does not include the surrounding
    quotes. *)

(** A JSON value as a writer that appends it to a buffer, so nested
    values compose without naming the buffer:
    [to_string (obj [ field "v" (int 1) ])] is [{"v":1}]. *)
type writer = Buffer.t -> unit

val str : string -> writer
(** A quoted, escaped JSON string. *)

val int : int -> writer

val float : float -> writer
(** Integral floats print without an exponent or fraction; non-finite
    values fall back to quoted strings. *)

val field : string -> writer -> writer
(** [field name v] is ["name":<v>] — use inside {!obj}. *)

val obj : writer list -> writer
(** [{f1,...,fn}], commas inserted. *)

val arr : writer list -> writer

val to_string : writer -> string

(** {2 Hex floats}

    Floats that must round-trip exactly (journal entries, wire payloads,
    fingerprints) travel as their IEEE-754 bit patterns in lowercase hex
    ([%Lx]), so every value, NaN payloads included, survives. *)

val bits : float -> string

val of_bits : string -> float
(** Inverse of {!bits}.  Raises [Failure "bad float bits ..."] on
    anything else. *)

(** {2 Parsing}

    A parser for exactly the subset the writers above emit — objects,
    arrays, strings and signed integers.  Floats that must round-trip
    exactly (journal entries, wire payloads) travel as IEEE-754 bit
    patterns inside strings, so JSON-number floats, booleans and [null]
    are deliberately outside the grammar.  Shared by the sweep journal
    decoder and the serve wire protocol. *)

type value =
  | Obj of (string * value) list
  | Arr of value list
  | Str of string
  | Int of int

val parse : string -> (value, string) result
(** Parse one complete JSON value; trailing bytes are an error.  The
    error message names the offending offset. *)

(** {2 Accessors}

    For decoders of the values {!parse} returns.  Each raises [Failure]
    with a short message naming what was expected, for the decoder to
    turn into its [Error]. *)

val fields : value -> (string * value) list
(** The members of an object; fails with ["not an object"]. *)

val find : (string * value) list -> string -> value
(** A member by name; fails with a ["missing field"] message naming
    it. *)

val int_of : value -> int
(** Fails with ["expected an integer"]. *)

val str_of : value -> string
(** Fails with ["expected a string"]. *)

val float_of : value -> float
(** A {!bits} string, decoded with {!of_bits}. *)
