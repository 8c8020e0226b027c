(** Minimal JSON writing and reading shared by the trace and metrics
    exports, the serve protocol and its store.

    The values serialized are small (strings, numbers and objects), so a
    few combinators over [Buffer] suffice, without a JSON library.  Numbers are printed with enough digits to round-trip
    ([%.17g] for non-integral floats), and non-finite floats — which raw
    JSON cannot represent — are emitted as the strings ["inf"], ["-inf"]
    and ["nan"]. *)

(** A JSON value as a writer that appends it to a buffer, so nested
    values compose without naming the buffer:
    [to_string (obj [ field "v" (int 1) ])] is [{"v":1}]. *)
type writer = Buffer.t -> unit

val str : string -> writer
(** A quoted JSON string: quotes, backslashes and control characters of
    the argument's bytes are escaped ([\n], [\r], [\t], and [\u00xx]
    for the other control characters); every other byte is copied as
    is, a maximal run at a time.  Store entries and wire payloads
    depend on every byte: [test_obs] holds the output to a per-byte
    reference writer, kept in the test, over arbitrary byte strings. *)

val int : int -> writer

val float : float -> writer
(** Integral floats print without an exponent or fraction; non-finite
    values fall back to quoted strings. *)

val field : string -> writer -> writer
(** [field name v] is ["name":<v>] — use inside {!obj}. *)

val obj : writer list -> writer
(** [{f1,...,fn}], commas inserted. *)

val to_string : writer -> string

(** {2 Hex floats}

    Floats that must round-trip exactly (wire payloads, fingerprints and
    keys) travel as their IEEE-754 bit patterns in lowercase hex
    ([%Lx]), so every value, NaN payloads included, survives. *)

val bits : float -> string
(** Exactly what [Printf.sprintf "%Lx" (Int64.bits_of_float v)] prints
    (no leading zeros, ["0"] for [+0.0]), written without [Printf].
    [test_obs] checks the two agree over arbitrary 64-bit patterns,
    signed zeros, infinities, NaN payloads and subnormals. *)

(** {2 Parsing}

    A parser for exactly the subset the serve protocol and store emit —
    objects, strings and signed integers.  Floats that must round-trip
    exactly (wire payloads) travel as IEEE-754 bit patterns inside
    strings, so JSON-number floats, arrays, booleans and [null] are
    deliberately outside the grammar. *)

type value =
  | Obj of (string * value) list
  | Str of string
  | Int of int

val parse : string -> (value, string) result
(** Parse one complete JSON value; trailing bytes are an error.  The
    error message names the offending offset.  A string literal's bytes
    between escapes are copied a run at a time; [test_obs] holds its
    value and every error message to a per-byte reference parser, kept
    in the test, over literals built from every escape, well formed or
    not. *)

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
(** A {!bits} string, decoded back to its float.  Fails with
    ["expected a string"], or ["bad float bits ..."] on a string that
    is not one. *)
