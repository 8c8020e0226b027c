(** Length-prefixed framing over a file descriptor (DESIGN §14).

    One frame = a 4-byte big-endian payload length followed by exactly
    that many payload bytes.  The framing layer knows nothing about the
    payload; {!Protocol} owns its JSON encoding.  Reads distinguish a
    clean close (EOF on a frame boundary) from a torn frame (EOF
    mid-frame) and from an oversized length prefix — the latter also
    covers garbage prefixes, which decode to absurd lengths — so a
    server can drop one bad connection without dying.  A connection
    reset ([ECONNRESET]) ends the stream like EOF does. *)

type read_error =
  | Closed  (** EOF or a reset on a frame boundary: the peer hung up. *)
  | Torn of int
      (** EOF or a reset after [n] bytes of an incomplete frame (header
          included): the peer died or was cut mid-write. *)
  | Oversized of int
      (** The length prefix announces [n] bytes, above the reader's
          [max_frame].  The stream cannot be re-synchronized after this;
          close the connection. *)

val describe : read_error -> string

val default_max_frame : int
(** 16 MiB — generous for rendered reports, small enough that a garbage
    prefix cannot make the reader allocate unbounded memory. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame, looping over short writes.  Raises [Unix_error]
    (e.g. [EPIPE]) if the peer is gone; callers treat that as a closed
    connection. *)

val read_frame : ?max_frame:int -> Unix.file_descr -> (string, read_error) result
(** Read one complete frame, looping over short reads.  Read errors
    other than a reset raise [Unix_error]. *)
